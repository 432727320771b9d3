package core

import (
	"reflect"
	"slices"
	"testing"
)

// badBatches are round batches that break the ServerBank contract for a
// 10-server bank (windows [0,4), [4,7), [7,10) at three shards). Several
// carry a valid prefix in an earlier shard window, so a bank that applied
// shard slices before checking later ones would show it.
var badBatches = []struct {
	name            string
	touched, counts []int32
}{
	{"length mismatch", []int32{1, 2}, []int32{1}},
	{"unsorted in one window", []int32{2, 1}, []int32{1, 1}},
	{"unsorted across windows", []int32{1, 5, 2}, []int32{1, 1, 1}},
	{"duplicate", []int32{3, 3}, []int32{1, 1}},
	{"duplicate after a valid window", []int32{1, 2, 5, 5}, []int32{1, 1, 1, 1}},
	{"out of window high", []int32{3, 99}, []int32{1, 1}},
	{"out of window negative", []int32{-1, 3}, []int32{1, 1}},
	{"zero count", []int32{4}, []int32{0}},
	{"zero count after a valid window", []int32{1, 8}, []int32{2, 0}},
	{"negative count", []int32{6}, []int32{-3}},
}

// TestLocalBankRejectsMalformedBatches pins the bank's input contract —
// the wire server relies on the same ServerShard checks to reject
// corrupt frames. Each malformed batch goes to a bank that has already
// decided one round; the rejection must change nothing: the loads are
// the same, and the next valid round decides exactly as on a bank that
// never saw the bad batch (which also covers the received totals and
// burned flags the loads do not show).
func TestLocalBankRejectsMalformedBatches(t *testing.T) {
	initial := []int{0, 3, 0, 1, 0, 0, 2, 0, 0, 4}
	first := [2][]int32{{0, 1, 3, 5, 8}, {2, 1, 3, 1, 1}}
	next := [2][]int32{{1, 2, 3, 5, 6, 8, 9}, {1, 1, 2, 3, 1, 2, 1}}
	for _, variant := range []Variant{SAER, RAES} {
		for _, shards := range []int{1, 3} {
			fresh := func() *LocalBank {
				t.Helper()
				bank, err := NewLocalBank(variant, 4, 10, shards)
				if err != nil {
					t.Fatal(err)
				}
				if err := bank.Reset(initial); err != nil {
					t.Fatal(err)
				}
				if _, err := bank.DecideRound(first[0], first[1]); err != nil {
					t.Fatal(err)
				}
				return bank
			}
			ref := fresh()
			wantLoads, _ := ref.Loads()
			wantLoads = slices.Clone(wantLoads)
			wantDec, err := ref.DecideRound(next[0], next[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range badBatches {
				bank := fresh()
				if _, err := bank.DecideRound(tc.touched, tc.counts); err == nil {
					t.Fatalf("%v shards=%d %s: DecideRound accepted %v/%v", variant, shards, tc.name, tc.touched, tc.counts)
				}
				if loads, _ := bank.Loads(); !slices.Equal(loads, wantLoads) {
					t.Fatalf("%v shards=%d %s: loads %v after rejection, want %v", variant, shards, tc.name, loads, wantLoads)
				}
				dec, err := bank.DecideRound(next[0], next[1])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dec, wantDec) {
					t.Fatalf("%v shards=%d %s: next round decided %+v, want %+v", variant, shards, tc.name, dec, wantDec)
				}
			}
		}
	}
}
