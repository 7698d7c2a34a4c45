package cli

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := map[string][]string{
		"":             nil,
		"a":            {"a"},
		"a,b":          {"a", "b"},
		" a , ,b, ":    {"a", "b"},
		",,":           nil,
		"GRU,CifarNet": {"GRU", "CifarNet"},
	}
	for in, want := range cases {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("0, 64,256")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 64, 256}) {
		t.Errorf("ParseInts = %v", got)
	}
	if out, err := ParseInts(""); err != nil || out != nil {
		t.Errorf("empty list should parse to nil, got %v, %v", out, err)
	}
	if _, err := ParseInts("64,x"); err == nil {
		t.Error("non-integer entry should fail")
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS", got)
	}
}

// FuzzParseInts feeds arbitrary lists to ParseInts: it never panics, and a
// list it accepts yields one integer per SplitList entry, which read back
// from their strconv.Itoa join give the same slice.
func FuzzParseInts(f *testing.F) {
	for _, s := range []string{"", "0, 64,256", "1,8,32", " 4 ", ",,", "-3,+5", "64,x", "1,,2", "9223372036854775808", "0x10", "1e3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseInts(s)
		if err != nil {
			return
		}
		if len(got) != len(SplitList(s)) {
			t.Fatalf("ParseInts(%q) = %v: %d entries, SplitList has %d", s, got, len(got), len(SplitList(s)))
		}
		parts := make([]string, len(got))
		for i, n := range got {
			parts[i] = strconv.Itoa(n)
		}
		again, err := ParseInts(strings.Join(parts, ","))
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("ParseInts(%q) = %v, but its join re-parses to %v, %v", s, got, again, err)
		}
	})
}
