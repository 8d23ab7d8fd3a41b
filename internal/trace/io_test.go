package trace

import (
	"bytes"
	"strings"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

func sampleEvents() []Event {
	m := id(1, "hello")
	ack := wire.NewLabeledAck(m, ident.Tag{Hi: 5, Lo: 5},
		[]ident.Tag{{Hi: 7, Lo: 7}, {Hi: 8, Lo: 8}})
	return []Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindSend, Proc: 0, Dst: 1, Msg: wire.NewMsg(m)},
		{At: 3, Kind: KindSend, Proc: 0, Dst: 2, Msg: wire.NewMsg(m), Dropped: true},
		{At: 4, Kind: KindReceive, Proc: 1, Msg: wire.NewMsg(m)},
		{At: 5, Kind: KindSend, Proc: 1, Dst: 0, Msg: ack},
		{At: 6, Kind: KindDeliver, Proc: 1, ID: m, Fast: true},
		{At: 7, Kind: KindCrash, Proc: 2},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := Write(&buf, 3, []bool{false, false, true}, events); err != nil {
		t.Fatal(err)
	}
	h, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 3 || len(h.Crashed) != 3 || !h.Crashed[2] {
		t.Fatalf("header %+v", h)
	}
	if len(got) != len(events) {
		t.Fatalf("events %d, want %d", len(got), len(events))
	}
	for i := range events {
		w, g := events[i], got[i]
		if w.At != g.At || w.Kind != g.Kind || w.Proc != g.Proc || w.Dst != g.Dst ||
			w.Dropped != g.Dropped || w.Fast != g.Fast || w.ID != g.ID {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, w, g)
		}
		if !w.Msg.Equal(g.Msg) && (w.Kind == KindSend || w.Kind == KindReceive) {
			t.Fatalf("event %d message mismatch", i)
		}
	}
}

func TestTraceReadErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", "", "empty"},
		{"garbage header", "not json\n", "bad header"},
		{"bad version", `{"version":9,"n":1,"crashed":[false]}` + "\n", "version"},
		{"inconsistent", `{"version":2,"n":2,"crashed":[false]}` + "\n", "inconsistent"},
		{"bad event", `{"version":2,"n":1,"crashed":[false]}` + "\nnope\n", "line 2"},
		{"bad kind", `{"version":2,"n":1,"crashed":[false]}` + "\n" + `{"kind":99}` + "\n", "unknown kind"},
		{"bad wire", `{"version":3,"n":1,"crashed":[false]}` + "\n" + `{"kind":1,"wire":"AQ=="}` + "\n", "line 2"},
	}
	for _, c := range cases {
		_, _, err := Read(strings.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want contains %q", c.name, err, c.want)
		}
	}
}
