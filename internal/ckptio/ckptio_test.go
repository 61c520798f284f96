package ckptio

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
)

// Test geometry: a 4096-byte file domain dealt to nranks in interleaved
// 64-byte runs, striped at 100 bytes so segments routinely cross stripe
// boundaries — the splitting path two-phase aggregation exists for.
const (
	testTotal  = 4096
	testSeg    = 64
	testStripe = 100
)

// testSegs returns rank r's interleaved file-view segments.
func testSegs(r, nranks int) []datatype.Segment {
	var segs []datatype.Segment
	for off := r * testSeg; off < testTotal; off += nranks * testSeg {
		segs = append(segs, datatype.Segment{Off: off, Len: testSeg})
	}
	return segs
}

// testData returns rank r's owned float64s for a cycle, distinct per
// (cycle, rank, index) so a misplaced byte cannot go unnoticed.
func testData(cycle, r, nranks int) []float64 {
	n := 0
	for _, s := range testSegs(r, nranks) {
		n += s.Len / 8
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(cycle*100000+r*1000+i) * 1.25
	}
	return out
}

func bitwiseEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestLayout pins down the deterministic stripe/aggregator geometry every
// rank derives independently.
func TestLayout(t *testing.T) {
	l := NewLayout(1000, 300, 2, 8)
	if l.NStripes() != 4 {
		t.Fatalf("NStripes = %d, want 4", l.NStripes())
	}
	if len(l.Aggr) != 2 || l.Aggr[0] != 0 || l.Aggr[1] != 4 {
		t.Fatalf("aggregators %v, want spread [0 4]", l.Aggr)
	}
	if off, n := l.StripeRange(3); off != 900 || n != 100 {
		t.Fatalf("last stripe [%d,+%d), want [900,+100)", off, n)
	}
	if l.StripeOwner(0) != 0 || l.StripeOwner(1) != 4 || l.StripeOwner(2) != 0 {
		t.Fatal("round-robin stripe ownership broken")
	}
	// Clamps: more aggregators than stripes or ranks is dead weight.
	if l := NewLayout(100, 1<<20, 8, 4); len(l.Aggr) != 1 {
		t.Fatalf("1-stripe file got %d aggregators", len(l.Aggr))
	}
	if l := NewLayout(1<<30, 1<<20, 99, 4); len(l.Aggr) != 4 {
		t.Fatalf("4-rank comm got %d aggregators", len(l.Aggr))
	}
}

// TestSplitPieces checks the stripe-boundary cut: pieces never cross a
// boundary, cover the view exactly, and land on the owning aggregator.
func TestSplitPieces(t *testing.T) {
	v := FileView{Total: testTotal, Segs: testSegs(1, 4)}
	l := NewLayout(testTotal, testStripe, 2, 4)
	covered := 0
	for owner, pieces := range splitPieces(v, l) {
		for _, p := range pieces {
			s := int(p.Off / l.StripeBytes)
			if l.StripeOwner(s) != owner {
				t.Fatalf("piece at %d binned to rank %d, stripe %d owned by %d", p.Off, owner, s, l.StripeOwner(s))
			}
			if (p.Off+p.Len-1)/l.StripeBytes != p.Off/l.StripeBytes {
				t.Fatalf("piece [%d,+%d) crosses a stripe boundary", p.Off, p.Len)
			}
			covered += int(p.Len)
		}
	}
	if covered != v.LocalBytes() {
		t.Fatalf("pieces cover %d bytes, view holds %d", covered, v.LocalBytes())
	}
}

// TestFaultPlanParse covers the command-line spec round trip.
func TestFaultPlanParse(t *testing.T) {
	p, err := ParseFaultPlan("short=0.2,eio=0.1,fsync=0.05,enospc=65536,crash=12,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.ShortWrite != 0.2 || p.WriteErr != 0.1 || p.FsyncErr != 0.05 ||
		p.ENOSPCAfter != 65536 || p.CrashAfterOps != 12 || p.Seed != 7 {
		t.Fatalf("parsed %+v", p)
	}
	if !p.Active() {
		t.Fatal("parsed plan not active")
	}
	if p, err := ParseFaultPlan(""); p != nil || err != nil {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"short", "bogus=1", "short=x"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestCommitRecordRoundTrip: encode/decode bitwise, plus rejection of every
// corruption class decodeCommit guards against.
func TestCommitRecordRoundTrip(t *testing.T) {
	cm := Commit{Epoch: 3, Cycle: 17, Residual: 1e-7, R0: 42.5, Total: 4096,
		StripeBytes: 100, CRCs: make([]uint32, 41)}
	for i := range cm.CRCs {
		cm.CRCs[i] = uint32(i * 2654435761)
	}
	buf := encodeCommit(cm)
	got, err := decodeCommit(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != cm.Epoch || got.Cycle != cm.Cycle || got.Residual != cm.Residual ||
		got.R0 != cm.R0 || got.Total != cm.Total || got.StripeBytes != cm.StripeBytes {
		t.Fatalf("decoded %+v", got)
	}
	for i := range cm.CRCs {
		if got.CRCs[i] != cm.CRCs[i] {
			t.Fatalf("CRC[%d] drifted", i)
		}
	}
	corrupt := func(mut func(b []byte) []byte) error {
		b := mut(append([]byte(nil), buf...))
		_, err := decodeCommit(b)
		return err
	}
	cases := map[string]func(b []byte) []byte{
		"flipped byte": func(b []byte) []byte { b[30] ^= 1; return b },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"truncated":    func(b []byte) []byte { return b[:10] },
		"stale version": func(b []byte) []byte { // version bump with a re-sealed CRC
			binary.LittleEndian.PutUint32(b[8:], commitVersion+1)
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
			return b
		},
	}
	for name, mut := range cases {
		if err := corrupt(mut); !errors.Is(err, ErrDamaged) {
			t.Fatalf("%s: err = %v, want ErrDamaged", name, err)
		}
	}
}

// runWorld runs body on an n-rank in-process world, failing the test on any
// rank error.
func runWorld(t *testing.T, n int, body func(c *mpi.Comm) error) {
	t.Helper()
	if err := core.NewUniformWorld(n, mpi.Optimized()).Run(body); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveRoundTrip is the end-to-end happy path: 4 ranks with
// interleaved noncontiguous views write checkpoints through the two-phase
// collective and sieve them back bitwise, with retention and listing intact.
func TestCollectiveRoundTrip(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	runWorld(t, n, func(c *mpi.Comm) error {
		st, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2, Keep: 3})
		if err != nil {
			return err
		}
		st.Bind(c, testTotal, testSegs(c.Rank(), n))
		for cy := 1; cy <= 5; cy++ {
			if err := st.PutOwned(cy, 1.0/float64(cy), 42.5, testData(cy, c.Rank(), n)); err != nil {
				return err
			}
		}
		its := st.Iterations()
		if len(its) != 3 || its[0] != 3 || its[2] != 5 {
			t.Errorf("rank %d retained %v, want [3 4 5]", c.Rank(), its)
		}
		dst := make([]float64, len(testData(4, c.Rank(), n)))
		res, r0, err := st.ReadOwned(4, dst)
		if err != nil {
			return err
		}
		if res != 0.25 || r0 != 42.5 {
			t.Errorf("rank %d metadata: res=%v r0=%v", c.Rank(), res, r0)
		}
		bitwiseEqual(t, dst, testData(4, c.Rank(), n), "sieve restore")

		// A reopened handle (the respawned-process path) sees the same
		// checkpoints and restores them identically.
		re, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
		if err != nil {
			return err
		}
		re.Bind(c, testTotal, testSegs(c.Rank(), n))
		if _, _, err := re.ReadOwned(5, dst); err != nil {
			return err
		}
		bitwiseEqual(t, dst, testData(5, c.Rank(), n), "reopened restore")
		return nil
	})
}

// TestEpochRetention: a respawned rank at a later epoch writes lower cycle
// numbers than its pre-crash incarnation; retention, ordered by (epoch,
// cycle), must evict the stale epoch-0 tail rather than the new
// incarnation's commits, and Protect must pin the agreed restore point
// under any pressure.  Every rank checks its own listing right after the
// collective returns, which is the retention-visibility invariant.
func TestEpochRetention(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	runWorld(t, n, func(c *mpi.Comm) error {
		st, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2, Keep: 3})
		if err != nil {
			return err
		}
		st.Bind(c, testTotal, testSegs(c.Rank(), n))
		put := func(cycles ...int) error {
			for _, cy := range cycles {
				if err := st.PutOwned(cy, 0.5, 1, testData(cy, c.Rank(), n)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := put(6, 8, 10); err != nil { // epoch 0, pre-crash
			return err
		}
		st.SetEpoch(1)
		st.Protect(4)
		if err := put(2, 4); err != nil { // epoch 1, resumed from before 6
			return err
		}
		// (epoch,cycle) order is e0c6 e0c8 e0c10 e1c2 e1c4; Keep=3 drops the
		// two oldest epoch-0 commits.  Ordering by cycle alone would have
		// evicted the epoch-1 commits 2 and 4 instead.
		if its := st.Iterations(); len(its) != 3 || its[0] != 2 || its[1] != 4 || its[2] != 10 {
			t.Errorf("rank %d retained %v, want [2 4 10]", c.Rank(), its)
		}
		// More epoch-1 commits: protected 4 survives, the rest rotate.
		if err := put(6, 8, 10, 12); err != nil {
			return err
		}
		if its := st.Iterations(); len(its) != 3 || its[0] != 4 || its[1] != 10 || its[2] != 12 {
			t.Errorf("rank %d retained %v, want [4 10 12]", c.Rank(), its)
		}
		dst := make([]float64, len(testData(4, c.Rank(), n)))
		if _, _, err := st.ReadOwned(4, dst); err != nil {
			return err
		}
		bitwiseEqual(t, dst, testData(4, c.Rank(), n), "protected restore")
		return nil
	})
}

// TestCollectiveFaultMatrix drives the collective write under each injected
// fault class on a SHARED filesystem and checks the two invariants the
// design rests on: the epoch outcome is agreed (all ranks fail together or
// none do), and every checkpoint that IS advertised restores bitwise — a
// fault may cost an epoch, never correctness.
func TestCollectiveFaultMatrix(t *testing.T) {
	const n = 4
	plans := map[string]*FaultPlan{
		"short-writes": {Seed: 11, ShortWrite: 0.3},
		"eio":          {Seed: 12, WriteErr: 0.3},
		"fsync-fail":   {Seed: 13, FsyncErr: 0.4},
		"enospc":       {Seed: 14, ENOSPCAfter: 3 * testTotal / 2},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(OSFS{}, plan)
			runWorld(t, n, func(c *mpi.Comm) error {
				st, err := NewStore(dir, ffs, Options{StripeBytes: testStripe, Aggregators: 2})
				if err != nil {
					return err
				}
				st.Bind(c, testTotal, testSegs(c.Rank(), n))
				aborts := 0
				for cy := 1; cy <= 6; cy++ {
					err := st.PutOwned(cy, 0.5, 1, testData(cy, c.Rank(), n))
					failed := 0.0
					if err != nil {
						failed = 1
						aborts++
					}
					// Agreement: the epoch either aborted on every rank or
					// committed on every rank.
					if sum := c.AllreduceScalar(failed, mpi.OpSum); sum != 0 && sum != n {
						t.Errorf("%s cycle %d: %v/%d ranks failed — outcome not agreed", name, cy, sum, n)
					}
				}
				if name != "fsync-fail" && aborts == 0 {
					t.Errorf("%s: plan injected nothing in 6 epochs", name)
				}
				// Whatever survived must restore bitwise through a clean
				// handle on the same (real) directory.
				rd, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
				if err != nil {
					return err
				}
				rd.Bind(c, testTotal, testSegs(c.Rank(), n))
				dst := make([]float64, len(testData(1, c.Rank(), n)))
				for _, cy := range rd.Iterations() {
					if _, _, err := rd.ReadOwned(cy, dst); err != nil {
						return err
					}
					bitwiseEqual(t, dst, testData(cy, c.Rank(), n), name+" survivor")
				}
				return nil
			})
		})
	}
}

// TestCollectiveCrashSweep sweeps a simulated host crash over every
// filesystem operation of a collective checkpoint: afterwards the directory
// either advertises the new checkpoint fully intact or not at all, and the
// previous checkpoint always survives bitwise — no crash point may publish
// a partial epoch.
func TestCollectiveCrashSweep(t *testing.T) {
	const n = 2
	for crashAt := 1; ; crashAt++ {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{}, &FaultPlan{CrashAfterOps: crashAt})
		crashed := false
		runWorld(t, n, func(c *mpi.Comm) error {
			pre, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
			if err != nil {
				return err
			}
			pre.Bind(c, testTotal, testSegs(c.Rank(), n))
			if err := pre.PutOwned(1, 0.5, 1, testData(1, c.Rank(), n)); err != nil {
				return err
			}

			st, err := NewStore(dir, ffs, Options{StripeBytes: testStripe, Aggregators: 2})
			if err == nil {
				st.Bind(c, testTotal, testSegs(c.Rank(), n))
				_ = st.PutOwned(2, 0.25, 1, testData(2, c.Rank(), n)) // best-effort
			}
			c.Barrier()
			if c.Rank() == 0 {
				crashed = ffs.Crashed()
				ffs.SimulateCrash()
			}
			c.Barrier()

			post, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
			if err != nil {
				return err
			}
			post.Bind(c, testTotal, testSegs(c.Rank(), n))
			its := post.Iterations()
			dst := make([]float64, len(testData(1, c.Rank(), n)))
			switch {
			case len(its) == 1 && its[0] == 1:
			case len(its) == 2 && its[0] == 1 && its[1] == 2:
				if _, _, err := post.ReadOwned(2, dst); err != nil {
					t.Errorf("crashAt=%d: advertised checkpoint 2 failed to restore: %v", crashAt, err)
				} else {
					bitwiseEqual(t, dst, testData(2, c.Rank(), n), "post-crash checkpoint 2")
				}
			default:
				t.Errorf("crashAt=%d: iterations %v, want [1] or [1 2]", crashAt, its)
			}
			if _, _, err := post.ReadOwned(1, dst); err != nil {
				t.Errorf("crashAt=%d: previous checkpoint damaged: %v", crashAt, err)
			} else {
				bitwiseEqual(t, dst, testData(1, c.Rank(), n), "post-crash checkpoint 1")
			}
			return nil
		})
		if t.Failed() {
			return
		}
		if !crashed {
			return // the whole collective write fit before the crash point
		}
	}
}

// TestDamageTaxonomy corrupts a committed checkpoint every way the design
// claims to survive — truncated stripe, bit-flipped payload, damaged commit
// record, stale-epoch commit — and requires each to drop silently out of the
// restorable set while the intact checkpoint restores bitwise.
func TestDamageTaxonomy(t *testing.T) {
	const n = 2
	damage := []struct {
		name string
		mut  func(t *testing.T, dir string)
	}{
		{"truncated stripe", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, dataName(0, 2)), testTotal-testStripe/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped payload", func(t *testing.T, dir string) {
			p := filepath.Join(dir, dataName(0, 2))
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0x01
			if err := os.WriteFile(p, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad commit record", func(t *testing.T, dir string) {
			p := filepath.Join(dir, commitName(0, 2))
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			buf[20] ^= 0x80
			if err := os.WriteFile(p, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale epoch", func(t *testing.T, dir string) {
			// The record still claims (epoch 0, cycle 2) inside, so under
			// an epoch-1 name it is a stale impostor and must be rejected.
			if err := os.Rename(filepath.Join(dir, commitName(0, 2)), filepath.Join(dir, commitName(1, 2))); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(dir, dataName(0, 2)), filepath.Join(dir, dataName(1, 2))); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runWorld(t, n, func(c *mpi.Comm) error {
				st, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
				if err != nil {
					return err
				}
				st.Bind(c, testTotal, testSegs(c.Rank(), n))
				for cy := 1; cy <= 2; cy++ {
					if err := st.PutOwned(cy, 0.5, 1, testData(cy, c.Rank(), n)); err != nil {
						return err
					}
				}
				c.Barrier()
				if c.Rank() == 0 {
					tc.mut(t, dir)
				}
				c.Barrier()

				rd, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
				if err != nil {
					return err
				}
				rd.Bind(c, testTotal, testSegs(c.Rank(), n))
				its := rd.Iterations()
				if len(its) != 1 || its[0] != 1 {
					t.Errorf("rank %d: damaged checkpoint still advertised: %v", c.Rank(), its)
				}
				dst := make([]float64, len(testData(1, c.Rank(), n)))
				if _, _, err := rd.ReadOwned(2, dst); err == nil {
					t.Errorf("rank %d: damaged checkpoint 2 restored without error", c.Rank())
				}
				if _, _, err := rd.ReadOwned(1, dst); err != nil {
					return err
				}
				bitwiseEqual(t, dst, testData(1, c.Rank(), n), tc.name+" intact sibling")
				return nil
			})
		})
	}
}

// TestWriteFileDurableCrash: WriteFileDurable's fsync-then-rename-then-dir-
// fsync makes the file atomically visible — after a crash the final name
// holds either the complete content or nothing, and the temp never lingers
// under a live name.
func TestWriteFileDurableCrash(t *testing.T) {
	content := make([]byte, 1000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	for crashAt := 1; ; crashAt++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "rec.bin")
		ffs := NewFaultFS(OSFS{}, &FaultPlan{CrashAfterOps: crashAt})
		werr := WriteFileDurable(ffs, path, content)
		crashed := ffs.Crashed()
		ffs.SimulateCrash()
		got, rerr := os.ReadFile(path)
		switch {
		case rerr != nil: // lost entirely: fine, as long as the write agreed
			if werr == nil && crashed {
				t.Fatalf("crashAt=%d: write reported success but the file vanished", crashAt)
			}
		default:
			if len(got) != len(content) {
				t.Fatalf("crashAt=%d: partial file visible (%d of %d bytes)", crashAt, len(got), len(content))
			}
			for i := range content {
				if got[i] != content[i] {
					t.Fatalf("crashAt=%d: corrupt byte %d", crashAt, i)
				}
			}
		}
		if !crashed {
			if werr != nil {
				t.Fatalf("fault-free write failed: %v", werr)
			}
			return
		}
	}
}

// TestViewFromType ties the file view to the datatype compiler: a
// Flatten-ed subarray and ViewFromType agree, and the float bridge holds.
func TestViewFromType(t *testing.T) {
	sub := datatype.Subarray([]int{4, 8}, []int{2, 4}, []int{1, 2}, datatype.Double)
	v := ViewFromType(4*8*8, sub)
	if v.Total != 256 || len(v.Segs) == 0 {
		t.Fatalf("view %+v", v)
	}
	if v.LocalBytes() != 2*4*8 {
		t.Fatalf("LocalBytes = %d, want 64", v.LocalBytes())
	}
	v.validate()
	x := make([]float64, v.LocalBytes()/8)
	if len(floatbytes.Bytes(x)) != v.LocalBytes() {
		t.Fatal("float bridge size mismatch")
	}
}
