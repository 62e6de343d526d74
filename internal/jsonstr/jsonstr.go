// Package jsonstr is the repo's one JSON string escaper, shared by the JSON
// binding's codec (jsonb) and the publication store's hand-written WAL,
// snapshot and replication encoders (ifsvr). It imports nothing of the
// repo, so both can use it: ifsvr sits below jsonb in the import graph.
package jsonstr

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// unescaped marks the bytes Append copies as they are: printable ASCII but
// for the quote, the backslash and the three HTML characters. Control bytes
// are escaped; bytes from utf8.RuneSelf up start a rune, checked apart.
var unescaped = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// Append writes s as a JSON string literal onto buf with encoding/json's
// default escaping: the short escapes, \u00XX for the remaining control
// bytes and for < > & (the text may be embedded in HTML), \u2028 and
// \u2029, and \ufffd for invalid UTF-8.
func Append(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if unescaped[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
