package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/wire"
)

// File format: a JSON header line followed by one JSON event per line.
// The format is line-oriented so multi-gigabyte traces can be checked in
// a stream; cmd/urbcheck consumes it.

// Header opens a trace file.
type Header struct {
	Version int    `json:"version"`
	N       int    `json:"n"`
	Crashed []bool `json:"crashed"`
}

// jsonTag serialises an ident.Tag.
type jsonTag struct {
	Hi uint64 `json:"hi"`
	Lo uint64 `json:"lo"`
}

func toJSONTag(t ident.Tag) jsonTag   { return jsonTag{Hi: t.Hi, Lo: t.Lo} }
func fromJSONTag(t jsonTag) ident.Tag { return ident.Tag{Hi: t.Hi, Lo: t.Lo} }

// jsonEvent serialises an Event. Body is a byte slice so that JSON
// encoding (base64) round-trips arbitrary payload bytes — a plain JSON
// string would mangle non-UTF-8 payloads into U+FFFD.
type jsonEvent struct {
	At      int64     `json:"at"`
	Kind    uint8     `json:"kind"`
	Proc    int       `json:"proc"`
	Dst     int       `json:"dst,omitempty"`
	Body    []byte    `json:"body,omitempty"`
	Tag     jsonTag   `json:"tag,omitempty"`
	MsgKind uint8     `json:"mk,omitempty"`
	AckTag  jsonTag   `json:"ack,omitempty"`
	Labels  []jsonTag `json:"labels,omitempty"`
	Dropped bool      `json:"dropped,omitempty"`
	Fast    bool      `json:"fast,omitempty"`
}

// fileVersion 2: the body field became base64-encoded bytes (arbitrary
// payloads); version 1 stored it as a JSON string and cannot represent
// non-UTF-8 bodies. Write emits version 2; Read also accepts version 1
// (old bodies are valid JSON strings and convert losslessly).
const fileVersion = 2

// jsonEventV1 reads a version-1 event: identical layout except the body
// is a plain JSON string.
type jsonEventV1 struct {
	jsonEvent
	Body string `json:"body,omitempty"`
}

// Write streams a header and events to w.
func Write(w io.Writer, n int, crashed []bool, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Version: fileVersion, N: n, Crashed: crashed}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, e := range events {
		je := jsonEvent{
			At: e.At, Kind: uint8(e.Kind), Proc: e.Proc, Dst: e.Dst,
			Dropped: e.Dropped, Fast: e.Fast,
		}
		switch e.Kind {
		case KindBroadcast, KindDeliver, KindAdopt:
			je.Body = e.ID.Bytes()
			je.Tag = toJSONTag(e.ID.Tag)
		case KindSend, KindReceive:
			je.Body = e.Msg.Body
			je.Tag = toJSONTag(e.Msg.Tag)
			je.MsgKind = uint8(e.Msg.Kind)
			je.AckTag = toJSONTag(e.Msg.AckTag)
			for _, l := range e.Msg.Labels {
				je.Labels = append(je.Labels, toJSONTag(l))
			}
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a trace stream.
func Read(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		return Header{}, nil, fmt.Errorf("trace: empty stream")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Header{}, nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.Version != fileVersion && h.Version != 1 {
		return Header{}, nil, fmt.Errorf("trace: unsupported version %d", h.Version)
	}
	if h.N < 1 || len(h.Crashed) != h.N {
		return Header{}, nil, fmt.Errorf("trace: inconsistent header (n=%d, crashed=%d)",
			h.N, len(h.Crashed))
	}
	var events []Event
	line := 1
	for sc.Scan() {
		line++
		var je jsonEvent
		if h.Version == 1 {
			// v1 stored the body as a plain JSON string; convert.
			var v1 jsonEventV1
			if err := json.Unmarshal(sc.Bytes(), &v1); err != nil {
				return Header{}, nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			je = v1.jsonEvent
			je.Body = []byte(v1.Body)
		} else if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			return Header{}, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		e := Event{
			At: je.At, Kind: Kind(je.Kind), Proc: je.Proc, Dst: je.Dst,
			Dropped: je.Dropped, Fast: je.Fast,
		}
		switch e.Kind {
		case KindBroadcast, KindDeliver, KindAdopt:
			e.ID = wire.NewMsgID(fromJSONTag(je.Tag), je.Body)
		case KindSend, KindReceive:
			e.Msg = wire.Message{
				Kind: wire.Kind(je.MsgKind), Body: je.Body,
				Tag: fromJSONTag(je.Tag), AckTag: fromJSONTag(je.AckTag),
			}
			for _, l := range je.Labels {
				e.Msg.Labels = append(e.Msg.Labels, fromJSONTag(l))
			}
		case KindCrash:
		default:
			return Header{}, nil, fmt.Errorf("trace: line %d: unknown kind %d", line, je.Kind)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("trace: scan: %w", err)
	}
	return h, events, nil
}

// WriteResult is a convenience: serialise a sim.Result (without wire
// events) plus a recorder's events if given. Mid-run joiners' adopted
// history is written either way.
func WriteResult(w io.Writer, res sim.Result, rec *Recorder) error {
	events := ResultEvents(res)
	if rec != nil {
		events = slices.Concat(rec.Events(), AdoptEvents(res))
	}
	return Write(w, len(res.Deliveries), res.Crashed, events)
}
