package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// ParseLevel maps a flag string to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// Logger is a leveled key=value logger. Lines look like
//
//	ts=2026-08-06T12:00:00.000Z level=info msg="job done" job=job-000001 mode=min
//
// A Logger is safe for concurrent use; With derives a child logger whose
// bound attributes (a job ID, a subsystem) prefix every line, which is how
// the scheduler gets job-correlated logs without threading IDs through every
// call. All methods are nil-safe: a nil *Logger discards everything, so
// optional logging costs one nil check.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level Level
	bound []Attr
	nowFn func() time.Time
}

// NewLogger writes lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level, nowFn: time.Now}
}

// With returns a child logger with attrs bound to every line.
func (l *Logger) With(attrs ...Attr) *Logger {
	if l == nil {
		return nil
	}
	child := *l
	child.bound = append(append([]Attr(nil), l.bound...), attrs...)
	return &child
}

// Enabled reports whether level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.Log(LevelDebug, msg, attrs...) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(LevelInfo, msg, attrs...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.Log(LevelWarn, msg, attrs...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, attrs ...Attr) { l.Log(LevelError, msg, attrs...) }

// Log logs at a level chosen at run time (a table-driven caller).
func (l *Logger) Log(level Level, msg string, attrs ...Attr) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.nowFn().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	writeLogValue(&b, msg)
	for _, a := range l.bound {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		writeLogValue(&b, a.Value)
	}
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		writeLogValue(&b, a.Value)
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// writeLogValue quotes values that contain spaces, quotes or control
// characters; bare tokens stay unquoted for grep-ability.
func writeLogValue(b *strings.Builder, v string) {
	plain := v != ""
	for _, r := range v {
		if r <= ' ' || r == '"' || r == '=' || r == 0x7f {
			plain = false
			break
		}
	}
	if plain {
		b.WriteString(v)
		return
	}
	fmt.Fprintf(b, "%q", v)
}
