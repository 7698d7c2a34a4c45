package nn

import "testing"

// FuzzParseNumerics feeds arbitrary names to ParseNumerics: it never panics,
// and a mode it accepts is spelled back by String into a name that parses to
// the same mode.
func FuzzParseNumerics(f *testing.F) {
	for _, name := range []string{"", "reference", "ref", "fast", "fastmath", "int8",
		"Fast", "INT8", " ref", "int4", "fast,int8", "\x00", "referenceX"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ParseNumerics(name)
		if err != nil {
			return
		}
		if again, err := ParseNumerics(m.String()); err != nil || again != m {
			t.Fatalf("ParseNumerics(%q) = %v, but ParseNumerics(%q) = %v, %v", name, m, m.String(), again, err)
		}
	})
}
