package server

// The ingest wire decoder: one pass over a POST body, straight into
// the compact form summarizeReports folds. A report's channels are
// interned against the vehicle's sorted channel names, so a report is a
// start, an engine-on figure and one (samples, mean) slot per dataset
// channel instead of a map; channels outside the set are parsed,
// validated and dropped.
//
// The decoder accepts exactly the bodies encoding/json's Decoder
// accepts into the wire structs
//
//	{"reports": [{"start": time.Time, "engine_on_seconds": float64,
//	  "channels": {name: {"samples": int, "mean", "min", "max": float64}}}]}
//
// and yields the same reports (FuzzIngestDecode checks it against that
// reference):
//   - struct field names match under Unicode case folding ("Start",
//     "REPORTS"); channel names match exactly;
//   - unknown fields are skipped, but their syntax is still checked;
//   - a repeated key decodes over what is already there: scalars, the
//     last one wins; a repeated "channels" object merges into the
//     channels already read; a repeated "reports" array decodes into the
//     reports already read, and may bring back elements a shorter array
//     in between cut off;
//   - null is a no-op on a struct, number or time field and clears a
//     "reports" array or a "channels" object;
//   - samples must be an integer literal in int's range, every float
//     must be in float64's range, start must parse as
//     (*time.Time).UnmarshalJSON parses its raw token;
//   - the body's first JSON value must be complete within maxIngestBody
//     bytes, and whatever follows it is ignored.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"vup/internal/etl"
)

// maxIngestBody caps an ingest body at 8 MiB.
const maxIngestBody = 8 << 20

// maxJSONDepth is encoding/json's nesting limit: a value may sit inside
// at most this many arrays and objects.
const maxJSONDepth = 10000

// errUnexpectedEnd reports a body whose first value is incomplete.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// batchChannel is one channel of one report. A zero samples count reads
// as absent.
type batchChannel struct {
	samples int
	mean    float64
}

// batchReport is one decoded report. Its channels are the len(names)
// slots at chans in the batch's slot array, in names order; chans is
// -1 until the report has a "channels" object.
type batchReport struct {
	start    time.Time
	engineOn float64
	chans    int
}

// ingestBatch is one decoded ingest body. Batches are pooled, so the
// body buffer and every array below are reused across requests.
type ingestBatch struct {
	names []string // the vehicle's channel names, sorted
	// reports holds every report element decoded so far and n how many
	// of them the body holds: a repeated "reports" array decodes into
	// the elements already there, and elements past n come back when a
	// later array grows over them again, as in encoding/json.
	reports []batchReport
	n       int
	chans   []batchChannel
	body    []byte
	key     []byte // unescaped object key

	// summarizeReports scratch: the day of each report and the per-day
	// accumulators.
	dayOf []int
	accs  []dayAcc
	sums  []float64
}

var batchPool = sync.Pool{New: func() any { return new(ingestBatch) }}

// decodeIngest reads one ingest body from r and decodes it against the
// channel set of d. The caller hands the batch back with release.
func decodeIngest(r io.Reader, d *etl.VehicleDataset) (*ingestBatch, error) {
	b := batchPool.Get().(*ingestBatch)
	b.names = b.names[:0]
	for name := range d.Channels {
		b.names = append(b.names, name)
	}
	sort.Strings(b.names)
	b.clearReports()

	body, rerr := appendBody(b.body[:0], r)
	b.body = body
	s := scanner{data: body, b: b}
	err := s.top()
	if errors.Is(err, errUnexpectedEnd) && rerr != nil {
		err = rerr // cut short by the cap or the client, not by the sender's JSON
	}
	if err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// release returns the batch to the pool, dropping arrays a huge body
// grew so the pool does not pin them.
func (b *ingestBatch) release() {
	if cap(b.body) > 1<<20 {
		b.body = nil
	}
	if cap(b.reports) > 1<<14 || cap(b.chans) > 1<<16 {
		b.reports, b.chans, b.dayOf = nil, nil, nil
	}
	batchPool.Put(b)
}

// clearReports empties the batch, as encoding/json's null or [] does.
func (b *ingestBatch) clearReports() {
	b.reports, b.n, b.chans = b.reports[:0], 0, b.chans[:0]
}

// intern returns the slot of a channel name, or -1 outside the set.
// Clients tend to send channels in one order (encoding/json sorts map
// keys), so the slot after the previous name is tried first.
func (b *ingestBatch) intern(name []byte, guess int) int {
	if guess < len(b.names) && b.names[guess] == string(name) {
		return guess
	}
	lo, hi := 0, len(b.names)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.names[m] < string(name) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(b.names) && b.names[lo] == string(name) {
		return lo
	}
	return -1
}

// appendBody appends everything r yields to buf. A read error comes back
// with the bytes read before it: like encoding/json's Decoder, the
// caller only reports it when those bytes hold no complete value.
func appendBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanner walks one body. Every method starts at the next byte to read,
// skipping leading whitespace itself.
type scanner struct {
	data []byte
	off  int
	b    *ingestBatch
}

func (s *scanner) top() error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.typeErr("ingest body")
	}
	s.off++
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if !more || err != nil {
			return err
		}
		if field(key, bodyFields) == 0 {
			err = s.reports()
		} else {
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

func (s *scanner) reports() error {
	b := s.b
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		b.clearReports()
		return s.literal("null")
	case '[':
	default:
		return s.typeErr("reports")
	}
	s.off++
	i := 0
	for first := true; ; first = false {
		more, err := s.element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i >= b.n {
			if i == len(b.reports) {
				b.reports = append(b.reports, batchReport{chans: -1})
			}
			b.n = i + 1
		}
		if err := s.report(&b.reports[i]); err != nil {
			return err
		}
		i++
	}
	switch {
	case i == 0:
		b.clearReports()
	case i < b.n:
		b.n = i
	}
	return nil
}

func (s *scanner) report(r *batchReport) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.typeErr("report")
	}
	s.off++
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if !more || err != nil {
			return err
		}
		switch field(key, reportFields) {
		case 0:
			err = s.start(&r.start)
		case 1:
			err = s.float(&r.engineOn)
		case 2:
			err = s.channels(r)
		default:
			err = s.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

func (s *scanner) channels(r *batchReport) error {
	b := s.b
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		if r.chans >= 0 {
			clear(b.chans[r.chans : r.chans+len(b.names)])
		}
		return s.literal("null")
	case '{':
	default:
		return s.typeErr("channels")
	}
	s.off++
	if r.chans < 0 {
		r.chans = len(b.chans)
		b.chans = append(b.chans, make([]batchChannel, len(b.names))...)
	}
	slots := b.chans[r.chans : r.chans+len(b.names)]
	guess := 0
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if !more || err != nil {
			return err
		}
		j := b.intern(key, guess)
		guess = j + 1
		var ch batchChannel
		if err := s.channel(&ch); err != nil {
			return err
		}
		if j >= 0 {
			slots[j] = ch
		}
	}
}

// channel decodes one channel value; a repeated name replaces the
// earlier value whole, so ch starts at zero.
func (s *scanner) channel(ch *batchChannel) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.typeErr("channel")
	}
	s.off++
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if !more || err != nil {
			return err
		}
		switch field(key, channelFields) {
		case 0:
			err = s.int(&ch.samples)
		case 1:
			err = s.float(&ch.mean)
		case 2, 3:
			err = s.bound()
		default:
			err = s.skip(5)
		}
		if err != nil {
			return err
		}
	}
}

// start decodes a time field by handing its raw token to
// (*time.Time).UnmarshalJSON, as encoding/json does.
func (s *scanner) start(t *time.Time) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '"':
	default:
		return s.typeErr("start")
	}
	from := s.off
	if _, _, err := s.str(); err != nil {
		return err
	}
	return t.UnmarshalJSON(s.data[from:s.off])
}

func (s *scanner) float(f *float64) error {
	raw, err := s.numberOrNull("float")
	if raw == nil || err != nil {
		return err
	}
	return s.parseFloat(raw, f)
}

func (s *scanner) parseFloat(raw []byte, f *float64) error {
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return fmt.Errorf("number %s out of float64 range", raw)
	}
	*f = v
	return nil
}

// bound checks a min or max, which nothing reads. encoding/json refuses
// one only when it overflows float64, and a token of at most 308 bytes
// without an exponent has at most 308 integer digits, so it is below
// 1e308 < math.MaxFloat64: only other tokens need ParseFloat's check.
func (s *scanner) bound() error {
	raw, err := s.numberOrNull("min/max")
	if raw == nil || err != nil || len(raw) <= 308 && bytes.IndexAny(raw, "eE") < 0 {
		return err
	}
	var f float64
	return s.parseFloat(raw, &f)
}

func (s *scanner) int(n *int) error {
	raw, err := s.numberOrNull("samples")
	if raw == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(raw), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("samples %s is not an integer in int range", raw)
	}
	*n = int(v)
	return nil
}

// numberOrNull consumes a number and returns its token, or consumes a
// null and returns nil.
func (s *scanner) numberOrNull(field string) ([]byte, error) {
	c, err := s.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || isDigit(c):
		return s.number()
	}
	return nil, s.typeErr(field)
}

// member starts the next member of an object whose '{' is consumed: it
// returns the member's key with the ':' after it consumed, or more ==
// false once the closing '}' is consumed.
func (s *scanner) member(first bool) (key []byte, more bool, err error) {
	c, err := s.peek()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		s.off++
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.syntaxErr()
		}
		s.off++
		if c, err = s.peek(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, s.syntaxErr()
	}
	raw, plain, err := s.str()
	if err != nil {
		return nil, false, err
	}
	key = raw
	if !plain {
		s.b.key = appendUnquoted(s.b.key[:0], raw)
		key = s.b.key
	}
	if c, err = s.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, s.syntaxErr()
	}
	s.off++
	return key, true, nil
}

// element starts the next element of an array whose '[' is consumed,
// or returns false once the closing ']' is consumed.
func (s *scanner) element(first bool) (bool, error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	switch {
	case c == ']':
		s.off++
		return false, nil
	case first:
		return true, nil
	case c != ',':
		return false, s.syntaxErr()
	}
	s.off++
	return true, nil
}

// skip consumes one value of any kind, checking its syntax. depth is
// the number of arrays and objects around it.
func (s *scanner) skip(depth int) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{', '[':
		if depth >= maxJSONDepth {
			return fmt.Errorf("JSON nested deeper than %d at offset %d", maxJSONDepth, s.off)
		}
		s.off++
		for first := true; ; first = false {
			var more bool
			if c == '{' {
				_, more, err = s.member(first)
			} else {
				more, err = s.element(first)
			}
			if !more || err != nil {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		_, _, err = s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	if c == '-' || isDigit(c) {
		_, err = s.number()
		return err
	}
	return s.syntaxErr()
}

// str consumes a string token and returns the bytes between its
// quotes; plain is false when they hold an escape or a non-ASCII byte,
// that is when unquoting could change them.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	d := s.data
	from := s.off + 1
	plain = true
	for i := from; i < len(d); i++ {
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		if i == len(d) {
			break
		}
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[from:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(d) {
				return nil, false, s.errAt(i + 1)
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(d) || !isHex(d[k]) {
						return nil, false, s.errAt(k)
					}
				}
				i += 5
			default:
				return nil, false, s.errAt(i + 1)
			}
		case c < 0x20:
			return nil, false, s.errAt(i)
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, s.errAt(len(d))
}

// number consumes a number token, checking JSON's grammar.
func (s *scanner) number() ([]byte, error) {
	d, from := s.data, s.off
	i := from
	if d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if j := skipDigits(d, i); j > i {
		i = j
	} else {
		return nil, s.errAt(i)
	}
	if i < len(d) && d[i] == '.' {
		i++
		j := skipDigits(d, i)
		if j == i {
			return nil, s.errAt(i)
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			return nil, s.errAt(i)
		}
		i = j
	}
	s.off = i
	return d[from:i], nil
}

// plainByte marks the bytes a string token carries as they are: not a
// quote, a backslash, a control character or part of a multi-byte rune.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

func (s *scanner) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if s.off == len(s.data) {
			return errUnexpectedEnd
		}
		if s.data[s.off] != lit[i] {
			return s.syntaxErr()
		}
		s.off++
	}
	return nil
}

// peek skips whitespace and returns the next byte.
func (s *scanner) peek() (byte, error) {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errUnexpectedEnd
}

// errAt is the syntax error at byte i.
func (s *scanner) errAt(i int) error {
	s.off = i
	return s.syntaxErr()
}

func (s *scanner) syntaxErr() error {
	if s.off == len(s.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q at offset %d", s.data[s.off], s.off)
}

func (s *scanner) typeErr(field string) error {
	return fmt.Errorf("cannot decode the value at offset %d into %s", s.off, field)
}

// The wire structs' field names, in the order the decoders switch on.
var (
	bodyFields    = []string{"reports"}
	reportFields  = []string{"start", "engine_on_seconds", "channels"}
	channelFields = []string{"samples", "mean", "min", "max"}
)

// field returns the index of the field an object key selects, or -1,
// matching as encoding/json does: exactly, or else under Unicode case
// folding.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	k := string(key)
	for i, name := range names {
		if strings.EqualFold(k, name) {
			return i
		}
	}
	return -1
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendUnquoted appends the string the raw contents of a checked
// string token stand for, as encoding/json unquotes it: escapes
// resolved, a lone or broken surrogate and every byte of invalid UTF-8
// replaced by U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 decodes the four hex digits a checked \u escape carries.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
