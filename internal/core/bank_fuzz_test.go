package core

import (
	"slices"
	"testing"
)

// fuzzLo, fuzzHi is the shard window FuzzServerShardDecide decodes batches
// against; decoded servers range over [fuzzLo-2, fuzzHi+2), so batches
// reach past both window edges.
const (
	fuzzLo, fuzzHi = 5, 21
	fuzzCapacity   = 3
)

// decodeFuzzBatches turns fuzz bytes into a variant and a sequence of
// (touched, counts) batches. data[0] holds flags: bit 0 picks RAES over
// SAER, bit 1 drops the last count of every batch (a length mismatch),
// bit 2 delta-codes servers (each step in {−1, …, 3}, so most batches
// are ascending but duplicates and descents still occur). Then each
// batch is a length byte (mod 9) followed by that many (server, count)
// byte pairs; counts decode to [−1, 4].
func decodeFuzzBatches(data []byte) (Variant, [][2][]int32) {
	if len(data) == 0 {
		return SAER, nil
	}
	flags := data[0]
	variant := SAER
	if flags&1 != 0 {
		variant = RAES
	}
	var batches [][2][]int32
	pos := 1
	for pos < len(data) {
		n := int(data[pos] % 9)
		pos++
		var touched, counts []int32
		prev := int32(fuzzLo - 1)
		for k := 0; k < n && pos+1 < len(data); k++ {
			u := int32(data[pos])%(fuzzHi-fuzzLo+4) + fuzzLo - 2
			if flags&4 != 0 {
				u = prev + int32(data[pos]%5) - 1
				prev = u
			}
			touched = append(touched, u)
			counts = append(counts, int32(data[pos+1]%6)-1)
			pos += 2
		}
		if flags&2 != 0 && len(counts) > 0 {
			counts = counts[:len(counts)-1]
		}
		batches = append(batches, [2][]int32{touched, counts})
	}
	return variant, batches
}

// validBatch is the ServerBank batch contract, stated independently of
// ServerShard.check.
func validBatch(touched, counts []int32) bool {
	if len(touched) != len(counts) {
		return false
	}
	for i, u := range touched {
		if u < fuzzLo || u >= fuzzHi || counts[i] <= 0 || (i > 0 && u <= touched[i-1]) {
			return false
		}
	}
	return true
}

// isAscendingSubsequence reports whether sub is strictly ascending and
// every element of it appears in the strictly ascending list of.
func isAscendingSubsequence(sub, of []int32) bool {
	j := 0
	for i, u := range sub {
		if i > 0 && u <= sub[i-1] {
			return false
		}
		for j < len(of) && of[j] != u {
			j++
		}
		if j == len(of) {
			return false
		}
		j++
	}
	return true
}

func sum32(xs []int32) (s int64) {
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// FuzzServerShardDecide feeds decoded batch sequences to one shard. Each
// Decide must not panic and must either reject the batch — exactly when
// it breaks the contract — leaving loads, received totals and burned
// flags unchanged, or accept it with Accepted and NewlyBurned strictly
// ascending subsequences of touched, the received totals grown by
// Σcounts, loads grown by the accepted servers' counts, and every load
// within capacity.
func FuzzServerShardDecide(f *testing.F) {
	f.Add([]byte{4, 3, 1, 1, 2, 2, 1, 3})
	f.Add([]byte{0, 2, 7, 1, 7, 1})
	f.Add([]byte{1, 8, 0, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		variant, batches := decodeFuzzBatches(data)
		sh, err := NewServerShard(variant, fuzzCapacity, fuzzLo, fuzzHi)
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]int32, fuzzHi-fuzzLo)
		for i := range initial {
			initial[i] = int32(i % (fuzzCapacity + 1))
		}
		if err := sh.Reset(initial); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			touched, counts := b[0], b[1]
			loads := slices.Clone(sh.load)
			recv := slices.Clone(sh.receivedTotal)
			burned := slices.Clone(sh.burned)
			burnedCount := sh.BurnedCount()
			acc, nb, sat, err := sh.Decide(touched, counts, nil, nil)
			if valid := validBatch(touched, counts); (err == nil) != valid {
				t.Fatalf("batch %v/%v: valid=%v but Decide err=%v", touched, counts, valid, err)
			}
			if err != nil {
				if acc != nil || nb != nil || sat != 0 ||
					!slices.Equal(sh.load, loads) || !slices.Equal(sh.receivedTotal, recv) ||
					!slices.Equal(sh.burned, burned) || sh.BurnedCount() != burnedCount {
					t.Fatalf("batch %v/%v: rejected (%v) but state or outputs changed", touched, counts, err)
				}
				continue
			}
			if !isAscendingSubsequence(acc, touched) || !isAscendingSubsequence(nb, touched) {
				t.Fatalf("batch %v: accepted %v / newly burned %v not ascending subsequences", touched, acc, nb)
			}
			if got, want := sum32(sh.receivedTotal), sum32(recv)+sum32(counts); got != want {
				t.Fatalf("batch %v/%v: received total %d, want %d", touched, counts, got, want)
			}
			var accCounts int64
			for i, u := range touched {
				if slices.Contains(acc, u) {
					accCounts += int64(counts[i])
				}
			}
			if got, want := sum32(sh.load), sum32(loads)+accCounts; got != want {
				t.Fatalf("batch %v/%v: load total %d, want %d", touched, counts, got, want)
			}
			for j, l := range sh.load {
				if l > fuzzCapacity {
					t.Fatalf("batch %v/%v: server %d load %d over capacity %d", touched, counts, fuzzLo+j, l, fuzzCapacity)
				}
			}
			if sh.BurnedCount() != burnedCount+len(nb) {
				t.Fatalf("batch %v: burned count %d, want %d", touched, sh.BurnedCount(), burnedCount+len(nb))
			}
			if variant == SAER && sat != len(nb) {
				t.Fatalf("batch %v: SAER saturated %d but %d newly burned", touched, sat, len(nb))
			}
		}
	})
}
