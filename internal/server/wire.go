package server

import (
	"bytes"
	"sync"
	"unicode/utf8"

	"github.com/mqgo/metaquery/internal/core"
)

// The answers of /v1/query and /v1/stream are rendered by hand, straight
// from core.Answer into a per-request buffer: no intermediate rule string,
// no boxed answer value and no per-row json.Encoder. The bytes are exactly
// what encoding/json with SetEscapeHTML(false) writes for the answer's
// wire struct {Rule, Sup, Cnf, Cvr string}, which FuzzAnswerJSON checks.

// wireBuf is one request's rendering buffers: out holds the JSON being
// built, rule the current answer's rule text before escaping.
type wireBuf struct {
	out, rule []byte
}

// wireBufs recycles rendering buffers across requests, as encoding/json
// recycles its encode states.
var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// queryDocument renders the /v1/query document into wb.out: the answers by
// hand, then env through encoding/json, whose opening brace becomes the
// comma after the answers.
func (wb *wireBuf) queryDocument(answers []core.Answer, env queryEnvelope) {
	wb.out = append(wb.out[:0], `{"answers":[`...)
	for i := range answers {
		if i > 0 {
			wb.out = append(wb.out, ',')
		}
		wb.appendAnswer(&answers[i])
	}
	wb.out = append(wb.out, ']')
	n := len(wb.out)
	buf := bytes.NewBuffer(wb.out)
	encode(buf, env)
	wb.out = buf.Bytes()
	wb.out[n] = ','
}

// streamRow renders one /v1/stream NDJSON row into wb.out.
func (wb *wireBuf) streamRow(a *core.Answer) {
	wb.out = wb.out[:0]
	wb.appendAnswer(a)
	wb.out = append(wb.out, '\n')
}

// appendAnswer appends one answer as the JSON object
// {"rule":...,"sup":...,"cnf":...,"cvr":...} to wb.out.
func (wb *wireBuf) appendAnswer(a *core.Answer) {
	wb.rule = a.Rule.AppendTo(wb.rule[:0])
	b := append(wb.out, `{"rule":`...)
	b = appendJSONString(b, wb.rule)
	b = append(b, `,"sup":"`...)
	b = a.Sup.AppendTo(b)
	b = append(b, `","cnf":"`...)
	b = a.Cnf.AppendTo(b)
	b = append(b, `","cvr":"`...)
	b = a.Cvr.AppendTo(b)
	wb.out = append(b, `"}`...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends src as a JSON string literal, escaped as
// encoding/json escapes strings with HTML escaping off: '"' and '\\' and
// the control bytes are escaped (\b \f \n \r \t by name, the rest as
// \u00XX), each byte of invalid UTF-8 becomes \ufffd, and U+2028 and
// U+2029 are escaped for JSONP safety.
func appendJSONString(dst, src []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		c := src[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
