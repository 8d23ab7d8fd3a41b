package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/wire"
)

// auditCase builds three broadcasts and a clean delivery stream at
// three nodes; each test case then tampers with the stream.
func auditCase() (sent [][]byte, ids []wire.MsgID, errs []error, got [][]node.Delivery) {
	for k := 0; k < 3; k++ {
		body := []byte{byte(k), 'x'}
		sent = append(sent, body)
		ids = append(ids, wire.NewMsgID(ident.Tag{Hi: 7, Lo: uint64(k + 1)}, body))
		errs = append(errs, nil)
	}
	got = make([][]node.Delivery, 3)
	for i := range got {
		for _, id := range ids {
			got[i] = append(got[i], node.Delivery{ID: id, At: time.Now()})
		}
	}
	return sent, ids, errs, got
}

func TestAuditCatchesViolations(t *testing.T) {
	cases := []struct {
		name                                string
		tamper                              func(ids []wire.MsgID, errs []error, got [][]node.Delivery) [][]node.Delivery
		missing, duplicate, corrupt, unknow int
		problem                             string
	}{
		{name: "clean", tamper: func(_ []wire.MsgID, _ []error, got [][]node.Delivery) [][]node.Delivery { return got }},
		{
			name: "duplicating",
			tamper: func(_ []wire.MsgID, _ []error, got [][]node.Delivery) [][]node.Delivery {
				got[1] = append(got[1], got[1][2])
				return got
			},
			duplicate: 1, problem: "node 1 delivered broadcast #2 more than once",
		},
		{
			name: "dropping",
			tamper: func(_ []wire.MsgID, _ []error, got [][]node.Delivery) [][]node.Delivery {
				got[2] = got[2][1:]
				return got
			},
			missing: 1, problem: "node 2 never delivered broadcast #0",
		},
		{
			name: "corrupting",
			tamper: func(ids []wire.MsgID, _ []error, got [][]node.Delivery) [][]node.Delivery {
				got[0][1].ID = wire.NewMsgID(ids[1].Tag, []byte("altered"))
				return got
			},
			corrupt: 1, problem: "node 0 delivered broadcast #1 with a body that differs",
		},
		{
			name: "inventing",
			tamper: func(_ []wire.MsgID, _ []error, got [][]node.Delivery) [][]node.Delivery {
				got[1] = append(got[1], node.Delivery{ID: wire.NewMsgID(ident.Tag{Hi: 9, Lo: 9}, []byte("x"))})
				return got
			},
			unknow: 1, problem: "never broadcast",
		},
		{
			name: "failed broadcast",
			tamper: func(_ []wire.MsgID, errs []error, got [][]node.Delivery) [][]node.Delivery {
				errs[0] = errors.New("node stopped")
				for i := range got {
					got[i] = got[i][1:]
				}
				return got
			},
			missing: 3, problem: "broadcast #0 failed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent, ids, errs, got := auditCase()
			got = tc.tamper(ids, errs, got)
			a := auditDeliveries(sent, ids, errs, got)
			if a.expected != 9 {
				t.Errorf("expected = %d, want 9", a.expected)
			}
			if a.missing != tc.missing || a.duplicate != tc.duplicate || a.corrupt != tc.corrupt || a.unknown != tc.unknow {
				t.Errorf("missing/duplicate/corrupt/unknown = %d/%d/%d/%d, want %d/%d/%d/%d",
					a.missing, a.duplicate, a.corrupt, a.unknown, tc.missing, tc.duplicate, tc.corrupt, tc.unknow)
			}
			if tc.problem == "" {
				if a.failures() != 0 || a.failRatio() != 0 || len(a.problems) != 0 {
					t.Errorf("clean stream flagged: %+v", a)
				}
				return
			}
			if a.failRatio() <= 0 {
				t.Errorf("fail ratio %g, want > 0", a.failRatio())
			}
			if len(a.problems) == 0 || !strings.Contains(a.problems[0], tc.problem) {
				t.Errorf("problems %q do not name %q", a.problems, tc.problem)
			}
		})
	}
}
