package orch

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
)

const fuzzTerm = 2

// fuzzMember is a follower at term 2 holding a two-entry log.
func fuzzMember() *Member {
	return &Member{
		term:    fuzzTerm,
		granted: fuzzTerm,
		log: []Entry{
			{Index: 0, Cmd: Command{Kind: CmdElect, Term: 1}},
			{Index: 1, Cmd: Command{Kind: CmdElect, Term: 2, Member: 1}},
		},
		stopped: make(chan struct{}),
	}
}

// FuzzMemberRPC feeds arbitrary bodies to all five member RPC handlers. None
// may panic, and a request a handler refuses — an unparsable body, a stale
// term, a negative prefix length, a vote or lease not granted — leaves the
// member's term and log as they were.
func FuzzMemberRPC(f *testing.F) {
	f.Add([]byte(`{"term":5,"prevLen":-1,"entries":[]}`))
	f.Add([]byte(`{"term":1,"prevLen":0,"entries":[]}`))
	f.Add([]byte(`{"term":3,"prevLen":1,"entries":[{"index":1,"cmd":{"kind":1,"term":3,"ring":2,"epoch":1}}]}`))
	f.Add([]byte(`{"term":3,"prevLen":9,"entries":[]}`))
	f.Add([]byte(`{"term":3,"candidate":1,"leader":1}`))
	f.Add([]byte(`{"from":-7}`))
	f.Add([]byte(`not json`))
	f.Add(core.EncodeSuspicion(1))
	rpcs := []struct {
		name   string
		handle func(*Member, netsim.NodeID, []byte) ([]byte, error)
	}{
		{RPCVote, (*Member).handleVote},
		{RPCAppend, (*Member).handleAppend},
		{RPCLease, (*Member).handleLease},
		{RPCLogRead, (*Member).handleLogRead},
		{core.RPCSuspect, (*Member).handleSuspect},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rpc := range rpcs {
			m := fuzzMember()
			before := m.Log()
			out, err := rpc.handle(m, "peer", body)
			var resp struct {
				OK      bool `json:"ok"`
				Granted bool `json:"granted"`
			}
			refused := err != nil || json.Unmarshal(out, &resp) != nil
			switch rpc.name {
			case RPCVote:
				refused = refused || !resp.Granted
			case RPCLease:
				refused = refused || !resp.OK
			case RPCAppend:
				var q appendReq
				if !refused && json.Unmarshal(body, &q) == nil && (q.Term < fuzzTerm || q.PrevLen < 0) {
					if resp.OK {
						t.Fatalf("append %q accepted", body)
					}
					refused = true
				}
			case RPCLogRead, core.RPCSuspect:
				refused = true // a read, or a report to a follower, never changes anything
			}
			if refused && (m.Term() != fuzzTerm || !reflect.DeepEqual(m.Log(), before)) {
				t.Fatalf("%s refused %q but moved term %d -> %d or log %v -> %v",
					rpc.name, body, fuzzTerm, m.Term(), before, m.Log())
			}
		}
	})
}

// TestAppendToRejectsNegativeLogLen: a follower reply carrying a negative
// log length counts as a failed append instead of slicing the leader's log
// out of range.
func TestAppendToRejectsNegativeLogLen(t *testing.T) {
	f := netsim.New(netsim.Config{})
	defer f.Stop()
	o := New(Config{Members: 2}, f, "orch", nil)
	leader, peer := o.members[0], o.members[1]
	peer.node.RegisterRPC(RPCAppend, func(netsim.NodeID, []byte) ([]byte, error) {
		return []byte(`{"ok":false,"term":0,"logLen":-1}`), nil
	})
	leader.log = fuzzMember().log
	ls := &leaderStint{m: leader, term: fuzzTerm, stop: make(chan struct{})}
	if ls.appendTo(peer, 1, leader.log[1:]) {
		t.Fatal("append answered with a negative log length counted as acknowledged")
	}
}
