package fault

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePlan feeds the plan parser untrusted text, as it arrives in
// the inject wire field and in faulty= agent specs. The parser must never
// panic, and a plan it accepts must print back — "seed=N" and each
// Rule.String(), comma-joined — to text that parses to the same seed and
// the same rules. Seeds live in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Add("seed=9,write=EIO@0.05,read=short:7@0.5,path:/z=delay:3,open:/etc=sig:SIGHUP@0.125")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		fields := []string{"seed=" + strconv.FormatUint(p.Seed, 10)}
		for _, r := range p.Rules {
			fields = append(fields, r.String())
		}
		text := strings.Join(fields, ",")
		again, err := ParsePlan(text)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", spec, text, err)
		}
		if again.Seed != p.Seed || !slices.Equal(again.Rules, p.Rules) {
			t.Fatalf("%q prints as %q, which parses to %+v, not %+v", spec, text, *again, *p)
		}
	})
}
