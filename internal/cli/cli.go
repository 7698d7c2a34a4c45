// Package cli holds the small flag-parsing helpers the command-line tools
// share, so the CLIs cannot drift apart on list syntax.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// SplitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(v); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, v := range SplitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", v, err)
		}
		out = append(out, n)
	}
	return out, nil
}
