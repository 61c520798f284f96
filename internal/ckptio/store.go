package ckptio

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
	"nccd/internal/obs"
)

// Options configures a collective checkpoint store.
type Options struct {
	// StripeBytes is the file-domain stripe size; 0 means 256 KiB.
	StripeBytes int64
	// Aggregators is the target aggregator count; 0 means min(size, 2).
	// Consecutive epoch failures degrade the effective count by halving
	// (never below 1), so a flaky aggregator host concentrates the I/O on
	// fewer, hopefully healthier, ranks.
	Aggregators int
	// Keep is how many committed checkpoints to retain; 0 means 4.
	// Retention is keyed by (epoch, cycle) and never removes a protected
	// cycle or the newest commit.
	Keep int
	// Faults, when non-nil, wraps the filesystem in seeded fault
	// injection (tests and the chaos harness).
	Faults *FaultPlan
	// OnCommit, when set, fires on every rank after a checkpoint commits
	// (the daemon's "CKPT n" announcement hook).
	OnCommit func(cycle int)
}

// Store is one rank's handle on a shared collective checkpoint directory.
// Every rank of the communicator holds its own Store over the same dir
// (and, in-process, the same FS); writes are collective, reads and listing
// are purely local.  It implements the builtin-typed owned-checkpoint
// surface the solver stack consumes (PutOwned / ReadOwned / Iterations),
// deliberately without importing the solver packages.
type Store struct {
	dir string
	fs  FS
	opt Options

	c     *mpi.Comm
	view  FileView
	epoch uint64

	fails     int          // consecutive aborted epochs, drives degradation
	protected map[int]bool // cycles retention must never remove
	valid     map[string]bool
}

// NewStore opens (creating if needed) a collective checkpoint directory.
// fs may be nil for the operating system filesystem; Options.Faults wraps
// whatever FS is used.
func NewStore(dir string, fs FS, opt Options) (*Store, error) {
	if fs == nil {
		fs = OSFS{}
	}
	if opt.Faults.Active() {
		fs = NewFaultFS(fs, opt.Faults)
	}
	if opt.StripeBytes <= 0 {
		opt.StripeBytes = 256 << 10
	}
	if opt.Keep <= 0 {
		opt.Keep = 4
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:       dir,
		fs:        fs,
		opt:       opt,
		protected: make(map[int]bool),
		valid:     make(map[string]bool),
	}, nil
}

// FS returns the store's filesystem (post fault-wrapping); tests use it to
// drive SimulateCrash.
func (s *Store) FS() FS { return s.fs }

// Bind attaches the store to a communicator and this rank's file view:
// total file-domain bytes and the rank's ascending byte segments of it.
// Bind is called before each solve attempt — after a recovery the
// communicator, the decomposition and hence the view have all changed.
func (s *Store) Bind(c *mpi.Comm, total int64, segs []datatype.Segment) {
	v := FileView{Total: total, Segs: segs}
	v.validate()
	s.c = c
	s.view = v
	// Validation results depend on the view; re-derive them under the new
	// decomposition.
	s.valid = make(map[string]bool)
	// Aggregator degradation is collective state: every rank must derive
	// the identical layout or the CRC-gather counts diverge.  Within one
	// bound attempt the epoch abort agreement keeps the counters in lock-
	// step, but across a recovery a respawned rank starts from zero — so
	// everyone restarts degradation at the shared rebind point.
	s.fails = 0
}

// SetEpoch sets the membership epoch stamped into subsequent checkpoints.
// The selfheal loop advances it on every recovery so a respawned rank's
// files can never collide with — or evict — its previous incarnation's.
func (s *Store) SetEpoch(e uint64) { s.epoch = e }

// Epoch returns the current stamping epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// Protect pins a cycle: retention will never remove its files.  The
// selfheal loop protects the consensus restore point so pruning by a
// healthy majority cannot evict the very checkpoint a rejoining rank needs.
func (s *Store) Protect(cycle int) { s.protected[cycle] = true }

// aggregators returns the effective aggregator target after degradation.
func (s *Store) aggregators(size int) int {
	n := s.opt.Aggregators
	if n <= 0 {
		n = 2
	}
	for i := 0; i < s.fails; i++ {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	if n > size {
		n = size
	}
	return n
}

// PutOwned writes one collective checkpoint: data is this rank's owned
// values in view order.  Collective — every bound rank must call it with
// the same cycle.  A local I/O fault on any rank aborts the epoch on all
// ranks with no checkpoint published; rank death surfaces as the
// collectives' typed errors for the caller's recovery path.
func (s *Store) PutOwned(cycle int, residual, r0 float64, data []float64) error {
	if s.c == nil {
		return fmt.Errorf("ckptio: store not bound")
	}
	local := floatbytes.Bytes(data)
	if len(local) != s.view.LocalBytes() {
		return fmt.Errorf("ckptio: local data %d bytes, view holds %d", len(local), s.view.LocalBytes())
	}
	l := NewLayout(s.view.Total, s.opt.StripeBytes, s.aggregators(s.c.Size()), s.c.Size())
	cm := Commit{
		Epoch:       s.epoch,
		Cycle:       cycle,
		Residual:    residual,
		R0:          r0,
		Total:       s.view.Total,
		StripeBytes: l.StripeBytes,
	}
	// Rank 0 prunes inside the protocol, before the commit broadcast, so
	// every rank's listing reflects retention once PutOwned returns.
	err := collectiveWrite(s.c, s.fs, s.dir, l, s.view, local, cm, s.prune)
	if err != nil {
		s.fails++
		obs.Metrics.Counter("ckpt.aborts").Inc()
		return err
	}
	s.fails = 0
	s.valid[commitName(cm.Epoch, cycle)] = true
	if s.opt.OnCommit != nil {
		s.opt.OnCommit(cycle)
	}
	return nil
}

// commitRef is one on-disk commit record, ordered by (epoch, cycle).
type commitRef struct {
	epoch uint64
	cycle int
}

// listCommits returns every commit record in the directory, sorted by
// (epoch, cycle) ascending.  Listing alone implies nothing about validity.
func (s *Store) listCommits() []commitRef {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []commitRef
	for _, name := range names {
		if e, cy, ok := parseCommitName(name); ok {
			out = append(out, commitRef{e, cy})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].epoch != out[j].epoch {
			return out[i].epoch < out[j].epoch
		}
		return out[i].cycle < out[j].cycle
	})
	return out
}

// loadCommit reads and decodes one commit record.
func (s *Store) loadCommit(r commitRef) (Commit, error) {
	buf, err := s.fs.ReadFile(filepath.Join(s.dir, commitName(r.epoch, r.cycle)))
	if err != nil {
		return Commit{}, fmt.Errorf("%w: %v", ErrDamaged, err)
	}
	cm, err := decodeCommit(buf)
	if err != nil {
		return Commit{}, err
	}
	if cm.Epoch != r.epoch || cm.Cycle != r.cycle {
		return Commit{}, fmt.Errorf("%w: commit record names (%d,%d), file says (%d,%d)",
			ErrDamaged, cm.Epoch, cm.Cycle, r.epoch, r.cycle)
	}
	return cm, nil
}

// validate deep-checks one checkpoint from this rank's perspective: the
// commit record parses and self-verifies, the file-domain size matches the
// bound view, and every stripe this rank's view touches passes its CRC.
// Results are cached per commit file.
func (s *Store) validate(r commitRef) bool {
	key := commitName(r.epoch, r.cycle)
	if ok, seen := s.valid[key]; seen {
		return ok
	}
	ok := s.validateUncached(r)
	s.valid[key] = ok
	return ok
}

func (s *Store) validateUncached(r commitRef) bool {
	cm, err := s.loadCommit(r)
	if err != nil {
		return false
	}
	if s.c == nil {
		// Unbound (a rejoining rank listing availability before the
		// post-recovery decomposition exists): the commit record's own
		// CRC held and the payload's extent is probed below; per-stripe
		// payload verification happens on the bound survivors, whose
		// lack-bits remove a damaged checkpoint from the intersection
		// anyway, and again at restore time before any byte is trusted.
		if cm.Total == 0 {
			return true
		}
		f, err := s.fs.OpenFile(filepath.Join(s.dir, dataName(r.epoch, r.cycle)), os.O_RDONLY, 0)
		if err != nil {
			return false
		}
		defer f.Close()
		var b [1]byte
		_, err = f.ReadAt(b[:], cm.Total-1)
		return err == nil
	}
	if cm.Total != s.view.Total {
		return false // a checkpoint of some other problem size
	}
	// Sieve through the view without keeping the result: this reads and
	// CRC-verifies exactly the stripes a restore would trust.
	scratch := make([]byte, s.view.LocalBytes())
	return sieveRead(s.fs, filepath.Join(s.dir, dataName(r.epoch, r.cycle)), cm, s.view, scratch) == nil
}

// bestFor returns the newest-epoch valid commit for a cycle.
func (s *Store) bestFor(cycle int) (commitRef, Commit, bool) {
	refs := s.listCommits()
	for i := len(refs) - 1; i >= 0; i-- {
		if refs[i].cycle != cycle {
			continue
		}
		if s.validate(refs[i]) {
			cm, err := s.loadCommit(refs[i])
			if err == nil {
				return refs[i], cm, true
			}
		}
	}
	return commitRef{}, Commit{}, false
}

// ReadOwned restores this rank's owned values for a cycle via data
// sieving: purely local, no collective, no replicated gather.  dst must
// hold exactly the view's element count.
func (s *Store) ReadOwned(cycle int, dst []float64) (residual, r0 float64, err error) {
	if s.c == nil {
		return 0, 0, fmt.Errorf("ckptio: store not bound")
	}
	buf := floatbytes.Bytes(dst)
	if len(buf) != s.view.LocalBytes() {
		return 0, 0, fmt.Errorf("ckptio: dst %d bytes, view holds %d", len(buf), s.view.LocalBytes())
	}
	start := s.c.Clock()
	r, cm, ok := s.bestFor(cycle)
	if !ok {
		return 0, 0, fmt.Errorf("%w: no valid commit for cycle %d", ErrDamaged, cycle)
	}
	if err := sieveRead(s.fs, filepath.Join(s.dir, dataName(r.epoch, r.cycle)), cm, s.view, buf); err != nil {
		// The cached validation must have gone stale (file changed
		// underneath us); invalidate and fail.
		s.valid[commitName(r.epoch, r.cycle)] = false
		return 0, 0, err
	}
	s.c.Span("ckpt_sieve_read", start,
		obs.Attr{Key: "cycle", Val: fmt.Sprint(cycle)},
		obs.Attr{Key: "epoch", Val: fmt.Sprint(r.epoch)},
		obs.Attr{Key: "local_bytes", Val: fmt.Sprint(len(buf))})
	obs.Metrics.Counter("ckpt.sieve_reads").Inc()
	return cm.Residual, cm.R0, nil
}

// Iterations returns the ascending cycles this rank can restore from: a
// cycle counts only when at least one of its commits passes full
// validation, so a truncated stripe, bit-flipped payload, damaged commit
// record or stale-version file silently drops out of restore consensus.
func (s *Store) Iterations() []int {
	cycles := make(map[int]bool)
	for _, r := range s.listCommits() {
		if !cycles[r.cycle] && s.validate(r) {
			cycles[r.cycle] = true
		}
	}
	out := make([]int, 0, len(cycles))
	for cy := range cycles {
		out = append(out, cy)
	}
	sort.Ints(out)
	return out
}

// prune enforces retention on rank 0 once a commit is durable: keep the
// newest Keep commits by (epoch, cycle), never removing a protected cycle
// or the newest commit, then make the unlinks durable with one directory
// fsync.  Stray uncommitted data files older than the oldest survivor go
// too.
func (s *Store) prune() {
	refs := s.listCommits()
	if len(refs) <= s.opt.Keep {
		return
	}
	removed := false
	excess := len(refs) - s.opt.Keep
	for _, r := range refs[:len(refs)-1] { // newest (last) is untouchable
		if excess == 0 {
			break
		}
		if s.protected[r.cycle] {
			continue
		}
		_ = s.fs.Remove(filepath.Join(s.dir, commitName(r.epoch, r.cycle)))
		_ = s.fs.Remove(filepath.Join(s.dir, dataName(r.epoch, r.cycle)))
		delete(s.valid, commitName(r.epoch, r.cycle))
		removed = true
		excess--
	}
	if removed {
		_ = s.fs.SyncDir(s.dir)
	}
}
