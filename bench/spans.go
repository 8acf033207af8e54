package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"netmem/internal/des"
)

// Spans are kept in memory for the whole traced run and written as Chrome
// trace JSON at exit. A span is one interval of one op at one layer
// boundary; parent links nest shard calls inside the op's apply span, and
// apply, qwait and hold inside the op's root span. A layer's self time is
// its span minus the part its children cover.

type spanName uint8

const (
	spanOp spanName = iota // scheduled arrival to completion
	spanQWait
	spanHold
	spanApply
	spanGetAttr
	spanSetAttr
	spanLookup
	spanReadLink
	spanRead
	spanWrite
	spanReadDir
	spanNull
	spanStatFS
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "qwait", "hold", "apply",
	"getattr", "setattr", "lookup", "readlink", "read", "write", "readdir", "null", "statfs"}

func (n spanName) String() string { return spanNames[n] }

// layer names the module a span's interval is spent in.
func (n spanName) layer() string {
	if n >= spanGetAttr {
		return "shard"
	}
	return "workload"
}

type spanRec struct {
	op         int64
	parent     int32 // index into tracer.spans; -1 for an op's root
	lane       int16
	name       spanName
	failed     bool
	start, end des.Time
}

func (s *spanRec) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct {
	spans []spanRec
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(op int64, parent int32, lane int16, name spanName, start des.Time) int32 {
	t.spans = append(t.spans, spanRec{op: op, parent: parent, lane: lane, name: name, start: start, end: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32, at des.Time, err error) {
	t.spans[i].end = at
	t.spans[i].failed = err != nil
}

// add records a span whose end is already known.
func (t *tracer) add(op int64, parent int32, lane int16, name spanName, start, end des.Time) {
	t.end(t.begin(op, parent, lane, name, start), end, nil)
}

// writeChrome writes the spans as Chrome trace_event JSON (Perfetto and
// chrome://tracing read it). Each lane is a thread. An op's root and qwait
// spans start before its lane picks it up, so they would overlap the
// lane's previous op; they go on per-op async tracks instead.
func (t *tracer) writeChrome(path, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q},"traceEvents":[`+"\n", title)
	us := func(t des.Time) float64 { return float64(t) / 1e3 }
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			io.WriteString(w, ",\n")
		}
		args := fmt.Sprintf(`{"op":%d,"failed":%v}`, s.op, s.failed)
		if s.name == spanOp || s.name == spanQWait {
			fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"b","id":%d,"pid":1,"tid":%d,"ts":%.3f,"args":%s},`,
				s.name.String(), s.name.layer(), s.op, s.lane, us(s.start), args)
			fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"e","id":%d,"pid":1,"tid":%d,"ts":%.3f}`,
				s.name.String(), s.name.layer(), s.op, s.lane, us(s.end))
			continue
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}`,
			s.name.String(), s.name.layer(), s.lane, us(s.start), float64(s.dur())/1e3, args)
	}
	io.WriteString(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
