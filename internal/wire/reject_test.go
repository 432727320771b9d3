package wire

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// rawSession is one hand-driven session on its own connection to a
// shard server: it speaks the frame protocol directly, so a test can
// send batches the Bank would never build.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	bw   *bufio.Writer
	fc   *frameConn
}

func dialRaw(t *testing.T, addr string, lo, hi int32) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	rs := &rawSession{t: t, conn: conn, bw: bw, fc: &frameConn{r: bufio.NewReader(conn), w: bw, limit: maxFrameSize}}
	var hello []byte
	hello = appendU32(hello, helloMagic)
	hello = appendU32(hello, protoVersion)
	hello = append(hello, byte(core.SAER))
	hello = appendI32(hello, 4)
	hello = appendI32(hello, lo)
	hello = appendI32(hello, hi)
	if _, err := rs.call(msgHello, hello, msgHelloOK); err != nil {
		t.Fatal(err)
	}
	return rs
}

func (rs *rawSession) call(typ byte, payload []byte, want byte) ([]byte, error) {
	rs.t.Helper()
	if err := rs.fc.writeMessage(typ, 0, payload); err != nil {
		rs.t.Fatal(err)
	}
	if err := rs.bw.Flush(); err != nil {
		rs.t.Fatal(err)
	}
	_, reply, err := rs.fc.expectMessage(want)
	return reply, err
}

func (rs *rawSession) round(touched, counts []int32) error {
	rs.t.Helper()
	_, err := rs.call(msgRound, appendI32Slice(appendI32Slice(nil, touched), counts), msgRoundReply)
	return err
}

func (rs *rawSession) loads() []int32 {
	rs.t.Helper()
	reply, err := rs.call(msgLoads, nil, msgLoadsReply)
	if err != nil {
		rs.t.Fatal(err)
	}
	r := reader{b: reply}
	loads := r.i32Slice(nil)
	if err := r.done(); err != nil {
		rs.t.Fatal(err)
	}
	return loads
}

// TestServerRejectsBadRound sends each malformed round batch to a shard
// server (window [4, 12)) after one valid round. The server must answer
// with an error frame and drop the connection, and its service tally
// must count only the valid round: the rejected batch reached no state.
// The session's shard dies with its connection, so "loads unchanged" is
// pinned in-process (core.TestLocalBankRejectsMalformedBatches and
// core.FuzzServerShardDecide); here a second connection's session must
// keep being served, with its loads intact.
func TestServerRejectsBadRound(t *testing.T) {
	for _, tc := range []struct {
		name            string
		touched, counts []int32
		msg             string
	}{
		{"length mismatch", []int32{5, 6}, []int32{1}, "counts"},
		{"unsorted", []int32{7, 5}, []int32{1, 1}, "ascending"},
		{"duplicate", []int32{5, 9, 9}, []int32{1, 1, 1}, "ascending"},
		{"below window", []int32{3, 5}, []int32{1, 1}, "outside"},
		{"above window", []int32{5, 12}, []int32{1, 1}, "outside"},
		{"zero count", []int32{5, 6}, []int32{1, 0}, "count 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			go srv.Serve()

			bystander := dialRaw(t, srv.Addr(), 4, 12)
			defer bystander.conn.Close()
			rs := dialRaw(t, srv.Addr(), 4, 12)
			defer rs.conn.Close()
			for _, s := range []*rawSession{bystander, rs} {
				if _, err := s.call(msgReset, []byte{0}, msgResetOK); err != nil {
					t.Fatal(err)
				}
				if err := s.round([]int32{4, 6, 11}, []int32{1, 2, 1}); err != nil {
					t.Fatal(err)
				}
			}
			wantLoads := []int32{1, 0, 2, 0, 0, 0, 0, 1}
			if got := bystander.loads(); !slices.Equal(got, wantLoads) {
				t.Fatalf("loads %v after the valid round, want %v", got, wantLoads)
			}
			before := srv.Report()

			err = rs.round(tc.touched, tc.counts)
			var se *serverError
			if !errors.As(err, &se) || !strings.Contains(se.msg, tc.msg) {
				t.Fatalf("round %v/%v: got %v, want a server error mentioning %q", tc.touched, tc.counts, err, tc.msg)
			}
			if _, _, _, err := rs.fc.readMessage(); err == nil {
				t.Fatal("server kept the connection open after rejecting the round")
			}
			after := srv.Report()
			if after.Rounds != before.Rounds || after.Requests != before.Requests || after.Accepted != before.Accepted {
				t.Fatalf("rejected round reached the tally: before %+v, after %+v", before, after)
			}
			if got := bystander.loads(); !slices.Equal(got, wantLoads) {
				t.Fatalf("other session's loads %v after the rejection, want %v", got, wantLoads)
			}
		})
	}
}
