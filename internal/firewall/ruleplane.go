package firewall

import (
	"hilti/internal/rt/ruleplane"
)

// RulePlaneProgram lowers the static half of a firewall rule set onto
// the shared rule plane: first match wins, verdict 1 = allow, 0 = deny,
// default deny — the same order-of-specification semantics Compile bakes
// into the generated classifier. The dynamic reverse-direction state
// (Figure 5's `dyn` set) stays in the engine, so the plane program is
// observational, not gating: its verdict reports what the static table
// alone would decide.
func RulePlaneProgram(name string, rules []Rule) ruleplane.Program {
	prog := ruleplane.Program{Name: name, Rules: make([]ruleplane.Rule, len(rules)), Default: 0}
	for i, r := range rules {
		var pr ruleplane.Rule
		if !r.Src.IsNil() {
			pr.Src = []ruleplane.AddrPred{ruleplane.AddrInNet(r.Src)}
		}
		if !r.Dst.IsNil() {
			pr.Dst = []ruleplane.AddrPred{ruleplane.AddrInNet(r.Dst)}
		}
		if r.Allow {
			pr.Verdict = 1
		}
		prog.Rules[i] = pr
	}
	return prog
}

// EnableTiering turns on runtime tier-2 promotion for the firewall's VM:
// hot functions get their tier-2 code once they pass threshold invocations
// (vm.Exec.EnableTiering semantics; 0 selects the VM default).
func (f *Firewall) EnableTiering(threshold int) {
	f.ex.EnableTiering(threshold)
}

// TierActive reports whether match_packet currently runs tier-2 code.
func (f *Firewall) TierActive() bool { return f.fn.TierActive() }
