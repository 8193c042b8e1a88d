package bench

import (
	"encoding/json"
	"os"
	"testing"

	"repligc/internal/workload"
)

// FuzzValidateReports holds the two validators `rtgc-bench validate` runs on
// a document it is handed — the perf report's and the serving report's — to
// their contract on arbitrary bytes: every input ends in nil or an error,
// never a panic. The seeds are the committed perf report and a serving report
// made of its serving section.
func FuzzValidateReports(f *testing.F) {
	committed, err := os.ReadFile("../../BENCH_SMOKE.json")
	if err != nil {
		f.Fatal(err)
	}
	var rep PerfReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		f.Fatal(err)
	}
	serving, err := json.Marshal(workload.BuildReport(rep.Serving))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add(serving)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ValidatePerf(data)
		_ = workload.ValidateReport(data)
	})
}
