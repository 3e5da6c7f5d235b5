package overlay

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// simGoldenCases are the sim_test.go scenarios whose full outcome is pinned
// under testdata/sim_golden. The files were recorded at the commit before
// the PR 13 driver refactor — the multilevel run with link delay at the
// commit before PR 20's batched floods — and are compared byte for byte: a
// reordered event, a lost message or a shifted virtual clock anywhere in the
// runtime shows up here even though every run still agrees with itself.
var simGoldenCases = []struct {
	name string
	spec SimSpec
	seed int64
}{
	{"flat_n600_seed7", SimSpec{N: 600, Churn: 4, Crashes: 2, Partition: true, Probes: 8, MeasureImprecision: true}, 7},
	{"flat_n600_delay_seed42", SimSpec{N: 600, Churn: 4, Crashes: 2, Partition: true, Probes: 10,
		MeasureImprecision: true, DelayPerUnit: time.Microsecond}, 42},
	{"multilevel_n1200_seed11", SimSpec{N: 1200, Multilevel: true, Churn: 3, Crashes: 2, Probes: 8}, 11},
	{"multilevel_n1200_delay_seed13", SimSpec{N: 1200, Multilevel: true, Churn: 3, Crashes: 2, Probes: 8,
		DelayPerUnit: time.Microsecond}, 13},
}

// simGolden renders the pinned fields of a report.
func simGolden(rep *SimReport) string {
	return fmt.Sprintf("rounds=%d\nvirtual=%d\ntraffic=%+v\ndigest=%016x\n--- trace ---\n%s",
		rep.Rounds, int64(rep.VirtualTime), rep.Traffic, rep.StateDigest, rep.Trace)
}

func TestSimulateGolden(t *testing.T) {
	for _, tc := range simGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Simulate(tc.spec, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "sim_golden", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := simGolden(rep); got != string(want) {
				t.Errorf("Simulate diverged from the recorded run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
