// Command hfcvet machine-checks the repo's concurrency and determinism
// invariants: the lock analyzers (lockscope, guardedby, lockorder), the
// determinism analyzers (detrand, maporder), errsweep, and the hot-path
// allocation budgets (hotalloc). The standard vet passes are not repeated
// here: `go vet ./...` runs them, and `make lint` runs it first.
//
// Usage:
//
//	go run ./cmd/hfcvet ./...          # whole-tree check
//	go run ./cmd/hfcvet -list          # print the registered analyzers
//	go run ./cmd/hfcvet -json ./...    # machine-readable diagnostics
//
// Internally the binary speaks the unitchecker protocol, so the check
// re-executes itself as `go vet -vettool=<self> <patterns>`: the go tool
// handles package loading, caching and dependency facts — which is what
// lets lockorder assemble its cross-package lock graph incrementally —
// and stays proxy-free (the analysis framework is vendored from the Go
// toolchain's own copy of x/tools).
//
// Suppressions: a diagnostic from analyzer NAME is silenced by a comment
// `//hfcvet:ignore NAME <justification>` on the same line or the line
// above; a suppression that no longer matches any diagnostic is itself
// reported as stale. See DESIGN.md "Concurrency & determinism invariants".
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"hfc/internal/analysis/detrand"
	"hfc/internal/analysis/errsweep"
	"hfc/internal/analysis/guardedby"
	"hfc/internal/analysis/hotalloc"
	"hfc/internal/analysis/lockorder"
	"hfc/internal/analysis/lockscope"
	"hfc/internal/analysis/maporder"
)

// analyzers is the hfcvet suite: the v1 lexical passes, then the v2
// flow-sensitive ones.
var analyzers = []*analysis.Analyzer{
	lockscope.Analyzer,
	guardedby.Analyzer,
	detrand.Analyzer,
	errsweep.Analyzer,
	lockorder.Analyzer,
	maporder.Analyzer,
	hotalloc.Analyzer,
}

func main() {
	if vetProtocol(os.Args[1:]) {
		unitchecker.Main(analyzers...) // does not return
	}

	// Driver mode: hand package loading to the go tool, pointing it back
	// at this binary as the vet tool. -list and -json are driver flags;
	// everything else is a package pattern.
	var jsonOut bool
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-list", "--list":
			listAnalyzers()
			return
		case "-json", "--json":
			jsonOut = true
		default:
			patterns = append(patterns, a)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfcvet:", err)
		os.Exit(1)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"vet", "-vettool=" + self}
	if jsonOut {
		args = append(args, "-json")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			os.Exit(exit.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "hfcvet:", err)
		os.Exit(1)
	}
}

// listAnalyzers prints the registered analyzers, one per line, with the
// first sentence of their doc — the contract surfaced by `hfcvet -list`.
func listAnalyzers() {
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("%-18s %s\n", a.Name, doc)
	}
}

// vetProtocol reports whether the arguments follow the unitchecker
// protocol (go vet invoking us), as opposed to user package patterns.
func vetProtocol(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-V=") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
