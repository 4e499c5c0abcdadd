package obs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// DefaultSubscriberBuf is the channel buffer ServeEventStream gives
// its subscription: enough to ride out a slow client's TCP stall for
// a burst of events without blocking the emitter.
const DefaultSubscriberBuf = 256

// ServeEventStream streams t's events to w as Server-Sent Events
// (text/event-stream): each event is written as an `id:` line (the
// tracer Seq), an `event:` line (the event name), and a `data:` line
// (the Event as JSON). The stream starts with a replay of the ring
// buffer — resumable: every event at or before the Seq after is
// skipped, so a reconnecting client that sends the last id it saw
// (its Last-Event-ID, which the caller parses) sees no duplicates —
// then follows the live feed. It ends when an event named terminal is
// sent (after sending it), when the client disconnects, or when the
// subscription is closed; the subscription is always released on
// return.
//
// A sealed tracer (Seal) replays its sealed log instead of the ring:
// the frames past the resume point go out in one burst, and the
// stream ends after the terminal frame. The frames are the ones the live stream
// wrote, so every reader gets the same bytes whether the tracer was
// sealed in between or not.
//
// Events the ring has already overwritten at replay time are gone
// (Seq gaps tell the client); events the live buffer cannot absorb
// are dropped, never blocking the emitter (the tracer counts them).
func ServeEventStream(w http.ResponseWriter, r *http.Request, t *Tracer, after uint64, terminal string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "events: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Subscribe before snapshotting the ring: an event emitted between
	// the two shows up in both, and the Seq watermark dedupes it; the
	// reverse order would lose it entirely.
	sub := t.Subscribe(DefaultSubscriberBuf)
	defer t.Unsubscribe(sub)

	last := after
	var frame []byte
	send := func(ev Event) bool {
		var err error
		if frame, err = appendFrame(frame[:0], ev); err != nil {
			return true
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		fl.Flush()
		last = ev.Seq
		return terminal == "" || ev.Name != terminal
	}
	events, log := t.snapshot()
	if log != nil {
		var more bool
		last, more = replaySealed(w, log, after, terminal)
		fl.Flush()
		if !more {
			return
		}
	}
	for _, ev := range events {
		if ev.Seq <= after {
			continue
		}
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if ev.Seq <= last {
				continue
			}
			if !send(ev) {
				return
			}
		}
	}
}

// appendFrame appends ev's SSE frame to dst: an `id:` line (the Seq),
// an `event:` line (the name) and a `data:` line (the Event as JSON),
// then a blank line. It is the one frame encoder: ServeEventStream
// writes its frames live and Seal stores them, so a sealed replay is
// byte for byte the live stream. An event that does not marshal has
// no frame; dst comes back unchanged with the error.
func appendFrame(dst []byte, ev Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return dst, err
	}
	dst = append(dst, "id: "...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, ev.Name...)
	dst = append(dst, "\ndata: "...)
	dst = append(dst, data...)
	return append(dst, "\n\n"...), nil
}

// frameHeader returns the Seq and the event name of a frame
// appendFrame wrote. The JSON on the data line holds no raw newline,
// so the name ends at the frame's last "\ndata: ".
func frameHeader(frame []byte) (seq uint64, name []byte) {
	rest := frame[len("id: "):]
	i := bytes.IndexByte(rest, '\n')
	for _, c := range rest[:i] {
		seq = seq*10 + uint64(c-'0')
	}
	rest = rest[i+len("\nevent: "):]
	return seq, rest[:bytes.LastIndex(rest, []byte("\ndata: "))]
}

// A sealed log is one flate stream (BestSpeed) of records, oldest
// event first; each record is a frame's length as a uvarint followed
// by the frame appendFrame wrote. The length prefix bounds every frame
// exactly, whatever bytes an event name holds.

// sealer is Seal's reusable state, pooled so a seal allocates only
// the JSON of its events and the sealed bytes it keeps.
type sealer struct {
	zw    *flate.Writer
	out   bytes.Buffer
	frame []byte
}

var sealers = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
	return &sealer{zw: zw}
}}

// sealFrames encodes the events of each part, in order, into a sealed
// log. Events that do not marshal have no frame, as on the live path.
func sealFrames(parts ...[]Event) []byte {
	s := sealers.Get().(*sealer)
	defer sealers.Put(s)
	s.out.Reset()
	s.zw.Reset(&s.out)
	var hdr [binary.MaxVarintLen64]byte
	for _, evs := range parts {
		for _, ev := range evs {
			var err error
			if s.frame, err = appendFrame(s.frame[:0], ev); err != nil {
				continue
			}
			// The flate writer writes into a bytes.Buffer, so neither
			// it nor its Close can fail.
			s.zw.Write(binary.AppendUvarint(hdr[:0], uint64(len(s.frame))))
			s.zw.Write(s.frame)
		}
	}
	s.zw.Close()
	return bytes.Clone(s.out.Bytes())
}

// inflater is replaySealed's reusable state: a flate reader and the
// buffer a log inflates into.
type inflater struct {
	zr  io.ReadCloser
	raw bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	return &inflater{zr: flate.NewReader(bytes.NewReader(nil))}
}}

// replaySealed writes the frames of a sealed log whose Seq is above
// after to w, stopping after the first frame named terminal ("" never
// stops). It returns the Seq of the last frame written (after if none
// was) and whether the stream goes on: false once the terminal frame
// is written, or when inflating or writing fails.
func replaySealed(w io.Writer, log []byte, after uint64, terminal string) (last uint64, more bool) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.raw.Reset()
	if err := in.zr.(flate.Resetter).Reset(bytes.NewReader(log), nil); err != nil {
		return after, false
	}
	if _, err := in.raw.ReadFrom(in.zr); err != nil {
		return after, false
	}
	last = after
	for b := in.raw.Bytes(); len(b) > 0; {
		n, k := binary.Uvarint(b)
		frame := b[k : k+int(n)]
		b = b[k+int(n):]
		seq, name := frameHeader(frame)
		if seq <= after {
			continue
		}
		if _, err := w.Write(frame); err != nil {
			return last, false
		}
		last = seq
		if terminal != "" && string(name) == terminal {
			return last, false
		}
	}
	return last, true
}
