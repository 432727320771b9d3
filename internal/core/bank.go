package core

import "fmt"

// RoundDecision is a server bank's phase-2 answer for one round: which
// servers accepted the round's requests, which newly burned, and how
// many saturated (rejected while not burned). The round's touched list
// is strictly ascending (the bank rejects any other), so both output
// lists are strictly ascending subsequences of it.
type RoundDecision struct {
	// Accepted lists the servers that accepted this round's requests
	// (SAER: received without exceeding the cumulative threshold; RAES:
	// load stayed within capacity).
	Accepted []int32
	// NewlyBurned lists the servers that crossed the cumulative
	// received threshold this round (SAER: burned for good; RAES:
	// diagnostic only — see Result.BurnedServers).
	NewlyBurned []int32
	// Saturated counts the servers that rejected the round while not
	// burned (RAES saturation; for SAER it equals len(NewlyBurned)).
	Saturated int
}

// ServerBank is the transport-agnostic server side of the protocol: the
// phase-B threshold decisions, abstracted away from *where* the server
// state lives. The in-process LocalBank applies the rules directly; the
// wire client (internal/wire) implements the same interface by sending
// batched round frames to remote server-shard processes. The Driver is
// the client side that runs the full protocol against any bank, and its
// results are bit-for-bit those of core.Run — the interface carries
// per-round (server, count) batches, not per-ball messages, which is
// what makes the wire transport viable at millions of balls.
//
// Per-run server state is rebuilt by Reset, so a bank is reusable
// across trials and epochs (the churn scheduler's executors rely on
// exactly that: a restarted server process is indistinguishable from a
// recovered one).
type ServerBank interface {
	// Reset re-initializes every server for a new run. initialLoads
	// pre-loads the servers (nil = all zero; otherwise one entry per
	// server): a server starting at or beyond the capacity is burned
	// from the start, matching Options.InitialLoads semantics.
	Reset(initialLoads []int) error
	// DecideRound applies the variant's threshold rule to one round's
	// received batch: touched lists the servers that received requests
	// this round, strictly ascending, and counts[i] > 0 is the number of
	// requests touched[i] received. Servers not listed received nothing
	// and must not change state. A batch that breaks this contract is
	// rejected with an error; no in-process shard applies any of it.
	DecideRound(touched, counts []int32) (RoundDecision, error)
	// Loads returns the per-server accepted load vector (all servers).
	Loads() ([]int32, error)
	// Close releases the bank's resources (network connections for
	// remote banks; a no-op locally).
	Close() error
}

// ServerShard is the protocol's server-side state for a contiguous
// server window [Lo, Hi): the single authoritative implementation of
// the SAER/RAES threshold rules outside the Runner's fused round loop.
// The in-process LocalBank composes shards directly; the wire server
// process wraps one shard per listener. Methods are not concurrency-
// safe — each shard is owned by one goroutine (or one process).
type ServerShard struct {
	variant  Variant
	capacity int32
	lo, hi   int

	load          []int32
	receivedTotal []int32
	burned        []bool
	burnedCount   int
}

// NewServerShard returns the server state for window [lo, hi).
func NewServerShard(variant Variant, capacity int32, lo, hi int) (*ServerShard, error) {
	if variant != SAER && variant != RAES {
		return nil, fmt.Errorf("core: unknown protocol variant %d", int(variant))
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: shard capacity must be at least 1, got %d", capacity)
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("core: invalid shard window [%d, %d)", lo, hi)
	}
	n := hi - lo
	return &ServerShard{
		variant:       variant,
		capacity:      capacity,
		lo:            lo,
		hi:            hi,
		load:          make([]int32, n),
		receivedTotal: make([]int32, n),
		burned:        make([]bool, n),
	}, nil
}

// Window returns the shard's server index range [lo, hi).
func (s *ServerShard) Window() (lo, hi int) { return s.lo, s.hi }

// Reset re-initializes the shard's servers. initialLoads holds the
// shard-local window (length hi-lo) of the run's initial loads; nil
// means all zero.
func (s *ServerShard) Reset(initialLoads []int32) error {
	if initialLoads != nil && len(initialLoads) != s.hi-s.lo {
		return fmt.Errorf("core: shard [%d,%d) reset with %d initial loads", s.lo, s.hi, len(initialLoads))
	}
	s.burnedCount = 0
	for i := range s.load {
		var l int32
		if initialLoads != nil && initialLoads[i] > 0 {
			l = initialLoads[i]
		}
		s.load[i] = l
		s.receivedTotal[i] = l
		// A server already at (or beyond) capacity can never accept
		// another ball: under SAER it is burned from the start and under
		// RAES the acceptance test always fails; marking it burned keeps
		// the diagnostic series consistent (Runner.resetState's rule).
		s.burned[i] = l >= s.capacity
	}
	return nil
}

// Decide applies the variant's threshold rule to the shard's slice of
// one round's batch: touched must lie inside the window, strictly
// ascending, with counts parallel to it and positive. The whole slice is
// checked before any state changes, so a batch that breaks the contract
// returns an error and leaves the shard exactly as it was. Accepted and
// newly-burned servers are appended to the provided slices (preserving
// input order) and returned with the saturation count.
func (s *ServerShard) Decide(touched, counts []int32, accepted, newlyBurned []int32) (acc, nb []int32, saturated int, err error) {
	if err := s.check(touched, counts); err != nil {
		return accepted, newlyBurned, 0, err
	}
	acc, nb, saturated = s.apply(touched, counts, accepted, newlyBurned)
	return acc, nb, saturated, nil
}

// check validates a batch slice against the shard without changing any
// state: equal lengths, every server inside the window, every count
// positive, servers strictly ascending (which also rules out
// duplicates).
func (s *ServerShard) check(touched, counts []int32) error {
	if len(touched) != len(counts) {
		return fmt.Errorf("core: shard decide with %d touched but %d counts", len(touched), len(counts))
	}
	prev := int32(-1)
	for i, u := range touched {
		if int(u) < s.lo || int(u) >= s.hi {
			return fmt.Errorf("core: server %d outside shard window [%d, %d)", u, s.lo, s.hi)
		}
		if u <= prev {
			return fmt.Errorf("core: server %d after server %d: batch not strictly ascending", u, prev)
		}
		if counts[i] <= 0 {
			return fmt.Errorf("core: server %d touched with count %d", u, counts[i])
		}
		prev = u
	}
	return nil
}

// apply runs the threshold rule over a batch slice that check accepted.
func (s *ServerShard) apply(touched, counts []int32, accepted, newlyBurned []int32) (acc, nb []int32, saturated int) {
	for i, u := range touched {
		recv := counts[i]
		j := int(u) - s.lo
		s.receivedTotal[j] += recv
		switch s.variant {
		case SAER:
			if s.burned[j] {
				// A burned server rejects everything; not a new
				// saturation event.
				continue
			}
			if s.receivedTotal[j] > s.capacity {
				s.burned[j] = true
				s.burnedCount++
				newlyBurned = append(newlyBurned, u)
				saturated++
				continue
			}
			s.load[j] += recv
			accepted = append(accepted, u)
		default: // RAES
			if !s.burned[j] && s.receivedTotal[j] > s.capacity {
				// Diagnostic only: the server would be burned under
				// SAER's stronger rule; RAES itself keeps going.
				s.burned[j] = true
				s.burnedCount++
				newlyBurned = append(newlyBurned, u)
			}
			if s.load[j]+recv > s.capacity {
				saturated++
				continue
			}
			s.load[j] += recv
			accepted = append(accepted, u)
		}
	}
	return accepted, newlyBurned, saturated
}

// Loads returns the shard's accepted load window (aliasing; read-only).
func (s *ServerShard) Loads() []int32 { return s.load }

// BurnedCount returns how many of the shard's servers are burned.
func (s *ServerShard) BurnedCount() int { return s.burnedCount }

// LocalBank is the in-process ServerBank: the shards live in this
// process and decisions are applied directly. It is the reference
// implementation the wire transport is tested against, and the
// single-process way to run the Driver (netsim-style executions, the
// wire aggregator's cross-checks).
type LocalBank struct {
	shards []*ServerShard
	m      int
	loads  []int32
	ends   []int // DecideRound scratch: where each shard's batch slice ends
}

// NewLocalBank returns an in-process bank of `shards` contiguous server
// shards covering [0, m). Shard windows differ in size by at most one.
func NewLocalBank(variant Variant, capacity int32, m, shards int) (*LocalBank, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: bank needs at least one server, got %d", m)
	}
	if shards <= 0 || shards > m {
		shards = min(max(shards, 1), m)
	}
	b := &LocalBank{m: m, loads: make([]int32, m)}
	per, rem := m/shards, m%shards
	lo := 0
	for s := 0; s < shards; s++ {
		size := per
		if s < rem {
			size++
		}
		sh, err := NewServerShard(variant, capacity, lo, lo+size)
		if err != nil {
			return nil, err
		}
		b.shards = append(b.shards, sh)
		lo += size
	}
	return b, nil
}

// Shards returns the bank's shard count.
func (b *LocalBank) Shards() int { return len(b.shards) }

// Reset re-initializes every shard with its window of initialLoads.
func (b *LocalBank) Reset(initialLoads []int) error {
	if initialLoads != nil && len(initialLoads) != b.m {
		return fmt.Errorf("core: bank reset with %d initial loads for %d servers", len(initialLoads), b.m)
	}
	for _, sh := range b.shards {
		var window []int32
		if initialLoads != nil {
			lo, hi := sh.Window()
			window = make([]int32, hi-lo)
			for i, l := range initialLoads[lo:hi] {
				window[i] = int32(l)
			}
		}
		if err := sh.Reset(window); err != nil {
			return err
		}
	}
	return nil
}

// DecideRound splits the batch across the shard windows, checks every
// shard's slice, and only then applies each shard's rule, so a rejected
// batch leaves every shard unchanged. Shard windows are contiguous
// ascending ranges, so the per-shard checks together prove the whole
// batch strictly ascending (a descent cannot straddle a split point),
// and concatenating the per-shard outputs in shard order keeps the
// decision lists sorted.
func (b *LocalBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	var dec RoundDecision
	if len(touched) != len(counts) {
		return dec, fmt.Errorf("core: round batch with %d touched but %d counts", len(touched), len(counts))
	}
	b.ends = b.ends[:0]
	from := 0
	for _, sh := range b.shards {
		_, hi := sh.Window()
		to := from
		for to < len(touched) && int(touched[to]) < hi {
			to++
		}
		if err := sh.check(touched[from:to], counts[from:to]); err != nil {
			return dec, err
		}
		b.ends = append(b.ends, to)
		from = to
	}
	if from != len(touched) {
		return dec, fmt.Errorf("core: server %d outside every shard window", touched[from])
	}
	from = 0
	for k, sh := range b.shards {
		to := b.ends[k]
		var sat int
		dec.Accepted, dec.NewlyBurned, sat = sh.apply(touched[from:to], counts[from:to], dec.Accepted, dec.NewlyBurned)
		dec.Saturated += sat
		from = to
	}
	return dec, nil
}

// Loads concatenates the shard load windows into the full vector.
func (b *LocalBank) Loads() ([]int32, error) {
	for _, sh := range b.shards {
		lo, hi := sh.Window()
		copy(b.loads[lo:hi], sh.Loads())
	}
	return b.loads, nil
}

// Close is a no-op for the in-process bank.
func (b *LocalBank) Close() error { return nil }
