package core

// codec_scalar.go is the lexical half of the contract codec: the one
// spelling of a string and of an integer in an artifact's canonical JSON,
// written by appendString/strconv and read back by the decoder's str,
// u64 and int, which refuse every other spelling. codec.go is the schema
// on top.

import (
	"math"
	"strings"
	"unicode/utf8"
)

// The bytes appendString backslashes by letter, and the letters.
const escaped, escapes = "\"\\\b\f\n\r\t", `"\bfnrt`

// plainByte reports whether c stands for itself inside a JSON string.
func plainByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string spelled exactly as
// encoding/json (Go ≥ 1.22, HTML escaping on) spells it: `"` `\` and
// \b \f \n \r \t backslashed, other control bytes and < > & as \u00xx,
// U+2028/U+2029 as \u202x, everything else verbatim — except that each
// invalid UTF-8 byte becomes \ufffd, which the decoder then refuses
// (such a name does not round-trip).
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte(c) {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if j := strings.IndexByte(escaped, c); j >= 0 {
			dst = append(append(dst, s[start:i]...), '\\', escapes[j])
		} else if c < utf8.RuneSelf {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else if r == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// u64 reads an unsigned integer in shortest decimal. What follows it is
// the next expect's business, which is what refuses "01", "1.0", "1e3".
func (d *decoder) u64(field string) uint64 {
	if d.expect(field); d.err != nil {
		return 0
	}
	v, j := digits(d.b, d.i)
	switch {
	case j < 0:
		d.fail("integer overflows 64 bits")
	case j == d.i:
		d.fail("expected an unsigned integer")
	default:
		d.i = j
	}
	return v
}

// digits reads the decimal digits at b[i:] — a leading 0 being the whole
// number — and returns their value and the offset after them: i when
// there is none, -1 when the number overflows 64 bits.
func digits(b []byte, i int) (v uint64, j int) {
	for j = i; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		c := uint64(b[j] - '0')
		if v > math.MaxUint64/10 || (v == math.MaxUint64/10 && c > math.MaxUint64%10) {
			return 0, -1
		}
		if v = v*10 + c; v == 0 {
			return 0, j + 1
		}
	}
	return v, j
}

// int reads a signed integer; "-0" is not canonical.
func (d *decoder) int(field string) int {
	d.expect(field)
	neg := d.lit(`-`)
	v := d.u64(``)
	switch {
	case neg && (v == 0 || v > -math.MinInt):
		d.fail("integer out of range")
	case neg:
		return int(-v)
	case v > math.MaxInt:
		d.fail("integer out of range")
	}
	return int(v)
}

// str reads a JSON string in the one spelling appendString gives it and
// returns it interned. Runs of plain bytes and valid multi-byte runes
// are taken from the input as they are; only an escape forces a copy.
func (d *decoder) str(field string) string {
	d.expect(field)
	d.expect(`"`)
	buf, first, start := d.sbuf[:0], d.i, d.i
	for i := d.i; i < len(d.b) && d.err == nil; {
		c, r, n := d.b[i], rune(0), 1
		switch {
		case c == '"':
			d.i = i + 1
			if start == first { // no escape seen
				return d.intern(d.b[first:i])
			}
			d.sbuf = append(buf, d.b[start:i]...)
			return d.intern(d.sbuf)
		case plainByte(c):
		case c >= utf8.RuneSelf:
			if r, n = utf8.DecodeRune(d.b[i:]); (r == utf8.RuneError && n == 1) || r == '\u2028' || r == '\u2029' {
				d.i = i
				d.fail("invalid UTF-8 or unescaped separator in string")
			}
		default:
			if r, n = unescape(d.b[i:]); n == 0 {
				d.i = i
				d.fail("byte %#x unescaped or in a non-canonical escape", c)
			}
			buf = utf8.AppendRune(append(buf, d.b[start:i]...), r)
			start = i + n
		}
		i += n
	}
	d.fail("unterminated string")
	return ""
}

// unescape decodes the escape sequence b starts with if it is one
// appendString writes, returning the rune and the sequence's length (0
// otherwise): \" \\ \b \f \n \r \t, \u00xx for the other control bytes
// and < > &, \u2028, \u2029 — lower-case hex only.
func unescape(b []byte) (r rune, n int) {
	if len(b) < 2 || b[0] != '\\' {
		return 0, 0
	}
	if j := strings.IndexByte(escapes, b[1]); j >= 0 {
		return rune(escaped[j]), 2
	}
	if b[1] != 'u' || len(b) < 6 {
		return 0, 0
	}
	for _, c := range b[2:6] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			return 0, 0
		}
	}
	if strings.ContainsRune("<>&\u2028\u2029", r) || (r < 0x20 && strings.IndexByte(escaped, byte(r)) < 0) {
		return r, 6
	}
	return 0, 0
}

func (d *decoder) intern(b []byte) string {
	s, ok := d.strs[string(b)]
	if !ok {
		s = string(b)
		d.strs[s] = s
	}
	return s
}
