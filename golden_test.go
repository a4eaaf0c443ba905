package specrun

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/runahead"
	"specrun/internal/trace"
	"specrun/internal/workload"
)

// Golden simulator digests: the byte-identity contract for the cycle-level
// core, checked on every `go test`.  Each case pins one simulation's Stats
// plus sha256 digests of its commit stream, its occupancy samples (every
// cycle and every 64 cycles, as `specrun trace --format csv` writes them)
// and its `specrun trace --format jsonl` lifecycle stream.  A change that
// moves any of them changes what the simulator computes; rerun with
//
//	go test -run TestGoldenSimDigests -update .
//
// only after deciding that it should, and say why in CHANGES.md.
//
// -short skips the lifecycle-trace digests of the Fig. 7 kernels (the JSON
// encoding of a few million events dominates the test's run time); the PHT
// PoC's trace digest is always checked.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current simulator")

// goldenBudget matches the `specrun trace` default; every case halts well
// inside it.
const goldenBudget = 50_000_000

type goldenCase struct {
	name  string
	cfg   core.Config
	prog  *asm.Program
	trace bool // check the lifecycle-trace digest under -short too
}

// goldenCases is every Fig. 7 kernel on each runahead variant, plus the PHT
// PoC on the secure (SL cache) and SkipINVBranch machines.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, k := range workload.Kernels() {
		prog := k.Build()
		for _, kind := range []runahead.Kind{runahead.KindNone, runahead.KindOriginal, runahead.KindPrecise, runahead.KindVector} {
			cases = append(cases, goldenCase{name: k.Name + "-" + kind.String(), cfg: core.VariantConfig(kind), prog: prog})
		}
	}
	pht, _, err := attack.Build(attack.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	skip := core.DefaultConfig()
	skip.Runahead.SkipINVBranch = true
	return append(cases,
		goldenCase{name: "pht-secure", cfg: core.SecureConfig(), prog: pht, trace: true},
		goldenCase{name: "pht-skipinv", cfg: skip, prog: pht, trace: true})
}

// simDigest is one case's golden record (testdata/golden/<case>.json).
type simDigest struct {
	Stats json.RawMessage `json:"stats"`
	digestSums
}

// digestSums is the comparable part of a golden record.
type digestSums struct {
	Cycle     uint64 `json:"cycle"`
	Error     string `json:"error,omitempty"`
	Commits   string `json:"commit_stream_sha256"`
	Samples1  string `json:"samples_every1_sha256"`
	Samples64 string `json:"samples_every64_sha256"`
	Trace     string `json:"trace_jsonl_sha256,omitempty"`
}

// digestWriter buffers writes into a sha256 hash.
type digestWriter struct {
	*bufio.Writer
	h hash.Hash
}

func newDigest() *digestWriter {
	h := sha256.New()
	return &digestWriter{Writer: bufio.NewWriterSize(h, 64<<10), h: h}
}

func (d *digestWriter) sum(t *testing.T) string {
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// computeDigest runs c twice: once with the commit hook, the every-cycle
// sampler and (when withTrace) the JSONL tracer installed, and once with
// only the every-64-cycle sampler.  The observers are inert, so both runs
// must also agree on Stats.
func computeDigest(t *testing.T, c goldenCase, withTrace bool) simDigest {
	commits, s1, s64, tr := newDigest(), newDigest(), newDigest(), newDigest()

	m := core.NewMachine(c.cfg, c.prog)
	m.SetCommitHook(func(r cpu.CommitRecord) {
		fmt.Fprintf(commits, "%d %x %v %v %x %x\n", r.Seq, r.PC, r.Op, r.Dest, r.Val, r.Val2)
	})
	m.SetSampler(1, cpu.CSVSampler(s1))
	var enc trace.Encoder
	if withTrace {
		enc = trace.NewJSONL(tr)
		m.SetTracer(enc.Event)
	}
	err := m.Run(goldenBudget)
	if err != nil && !errors.Is(err, cpu.ErrMaxCycles) {
		t.Fatalf("run: %v", err)
	}
	stats, jerr := json.Marshal(m.Stats())
	if jerr != nil {
		t.Fatal(jerr)
	}
	d := simDigest{Stats: stats, digestSums: digestSums{Cycle: m.Cycle(), Commits: commits.sum(t), Samples1: s1.sum(t)}}
	if err != nil {
		d.Error = err.Error()
	}
	if enc != nil {
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		d.Trace = tr.sum(t)
	}

	m2 := core.NewMachine(c.cfg, c.prog)
	m2.SetSampler(64, cpu.CSVSampler(s64))
	if err := m2.Run(goldenBudget); err != nil && !errors.Is(err, cpu.ErrMaxCycles) {
		t.Fatalf("sampled run: %v", err)
	}
	if stats2, _ := json.Marshal(m2.Stats()); string(stats2) != string(stats) {
		t.Fatalf("observers changed the run:\n with:    %s\n without: %s", stats, stats2)
	}
	d.Samples64 = s64.sum(t)
	return d
}

func TestGoldenSimDigests(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full digest set; drop -short")
	}
	dir := filepath.Join("testdata", "golden")
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			withTrace := c.trace || !testing.Short()
			got := computeDigest(t, c, withTrace)
			path := filepath.Join(dir, c.name+".json")
			if *update {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run 'go test -run TestGoldenSimDigests -update .' to create): %v", err)
			}
			var want simDigest
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !withTrace {
				want.Trace = ""
			}
			wantStats, gotStats := compactJSON(t, want.Stats), compactJSON(t, got.Stats)
			if wantStats != gotStats {
				t.Errorf("stats diverged from %s:\n want %s\n  got %s", path, wantStats, gotStats)
			}
			if want.digestSums != got.digestSums {
				t.Errorf("digests diverged from %s:\n want %+v\n  got %+v", path, want.digestSums, got.digestSums)
			}
		})
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) string {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
