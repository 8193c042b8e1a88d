package bench

import "repligc/internal/rig"

// AllPaperConfigs is the matrix of figures 8–10: the paper's five collector
// configurations (§4.4).
var AllPaperConfigs = []rig.Collector{rig.RT, rig.MinorInc, rig.MajorInc, rig.SCMods, rig.SC}

// Params is one cell of the paper's parameter matrix.
type Params = rig.Params

// PaperParams is the paper's O×N matrix with its L choices: L = 0.1 MB when
// N = 0.2 MB (the 50 ms target) and L = 0.5 MB when N = 1 MB (§4.2).
func PaperParams() []Params {
	mk := func(oMB, nMB float64) Params {
		p := Params{OBytes: int64(oMB * (1 << 20)), NBytes: int64(nMB * (1 << 20))}
		if nMB < 0.5 {
			p.LBytes = 100 << 10
		} else {
			p.LBytes = 500 << 10
		}
		return p
	}
	return []Params{mk(1, 0.2), mk(1, 1.0), mk(5, 0.2), mk(5, 1.0)}
}

// Result is one run: the workload and cell it ran, the run's report and what
// the workload printed.
type Result struct {
	Workload string
	Params   Params
	rig.Stats
	Output string
}

// Run executes workload w on the runtime rc describes and returns the
// measurements.
func Run(w Workload, rc rig.Config) (*Result, error) {
	rt, err := rig.New(rc)
	if err != nil {
		return nil, err
	}
	out, err := w.Run(rt.Mutator)
	if err != nil {
		return nil, err
	}
	if err := rt.Finish(); err != nil {
		return nil, err
	}
	return &Result{Workload: w.Name(), Params: rc.Params, Stats: rt.Stats(), Output: out}, nil
}
