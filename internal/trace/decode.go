package trace

import (
	"errors"
	"fmt"
)

// Mode selects how the decoder reacts to malformed input.
type Mode int

// Decoder modes.
const (
	// Strict fails the stream on the first malformed line. This is the
	// default: a trace is the sole contract between the tracer, the
	// transformation module and the simulator, so silent damage is worse
	// than a dead run.
	Strict Mode = iota
	// Lenient skips malformed lines (reporting each through OnError) up to
	// the MaxBadLines budget, then fails. Only whole-line damage is
	// skippable: I/O errors from the underlying reader always abort.
	Lenient
)

// String names the mode.
func (m Mode) String() string {
	if m == Lenient {
		return "lenient"
	}
	return "strict"
}

// DefaultMaxLineBytes is the line-length limit applied when
// DecodeOptions.MaxLineBytes is zero.
const DefaultMaxLineBytes = 1 << 20

// ErrLineTooLong marks a line that exceeds the configured MaxLineBytes.
// It is reported wrapped in a *BadLineError carrying the line number.
var ErrLineTooLong = errors.New("line exceeds maximum length")

// DecodeOptions tune a Reader. The zero value is a strict decoder with a
// 1 MiB line limit — the historical behaviour, minus its silent failure
// modes.
type DecodeOptions struct {
	// Mode is Strict (default) or Lenient.
	Mode Mode
	// MaxBadLines is the lenient-mode skip budget: after this many skipped
	// lines the stream fails anyway. Zero means unlimited. Ignored in
	// strict mode.
	MaxBadLines int
	// MaxLineBytes caps the length of a single line; zero selects
	// DefaultMaxLineBytes. Longer lines fail (strict) or are skipped
	// (lenient) as *BadLineError{Err: ErrLineTooLong}.
	MaxLineBytes int
	// OnError, if non-nil, is invoked once per malformed line with the
	// 1-based line number, the offending text (truncated to a ~128-byte
	// prefix for oversized lines) and the underlying parse error. It fires
	// in both modes, before the decoder decides whether to skip or fail.
	OnError func(line int, text string, err error)
}

// maxLine returns the effective line limit.
func (o *DecodeOptions) maxLine() int {
	if o.MaxLineBytes > 0 {
		return o.MaxLineBytes
	}
	return DefaultMaxLineBytes
}

// skip is the one damage budget of every decoder: it reports a damaged
// unit (a line, or a block of a binary trace) through OnError, then, in
// lenient mode within MaxBadLines, counts it in *bad and returns nil to
// keep going. Otherwise it returns the error that ends the stream.
func (o *DecodeOptions) skip(ble *BadLineError, bad *int) error {
	if o.OnError != nil {
		o.OnError(ble.Line, ble.Text, ble.Err)
	}
	if o.Mode != Lenient {
		return ble
	}
	*bad++
	if o.MaxBadLines > 0 && *bad > o.MaxBadLines {
		return fmt.Errorf("%w (bad-line budget %d exhausted)", ble, o.MaxBadLines)
	}
	return nil
}

// BadLineError is a malformed line: a record or START header that failed to
// parse, or a line over the length limit. Line is 1-based; Text is the
// offending line (truncated to its first ~128 bytes when the line was
// discarded for length). Binary-format decoders reuse the type for damaged
// blocks, with Line carrying the 1-based block ordinal.
type BadLineError struct {
	Line int
	Text string
	Err  error
}

// Error formats like the historical decoder errors ("line N: ...").
func (e *BadLineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

// Unwrap exposes the underlying parse error.
func (e *BadLineError) Unwrap() error { return e.Err }
