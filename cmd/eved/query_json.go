package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	eve "repro"
	"repro/internal/exec"
)

// bodyPool recycles /query response buffers; maxPooledBody bounds what goes
// back, so one huge result does not pin its buffer for the process's life.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeQueryJSON answers /query from a pooled buffer with a single Write.
func writeQueryJSON(w http.ResponseWriter, seq uint64, rt *eve.Route, res *eve.Relation) {
	bp := bodyPool.Get().(*[]byte)
	buf := appendQueryBody((*bp)[:0], seq, rt, res)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf) //nolint:errcheck // best-effort response write
	if cap(buf) <= maxPooledBody {
		*bp = buf
		bodyPool.Put(bp)
	}
}

// appendQueryBody appends the /query response: byte for byte what
// json.Encoder with two-space indent writes for the map {versionSeqs: [seq],
// route, view, cost, baseCost, columns, rows: res.Sorted() as [][]string of
// Value.Text, checksum} (keys sorted), but read straight off the result.
// Rows are walked through res.SortedOrder over the column vectors where the
// result has them (the tuples where not) and each cell is appended as text:
// no sorted tuple copy, no string per cell, no reflection.
func appendQueryBody(dst []byte, seq uint64, rt *eve.Route, res *eve.Relation) []byte {
	dst = appendJSONFloat(append(dst, "{\n  \"baseCost\": "...), rt.BaseCost)
	dst = append(dst, ",\n  \"checksum\": \""...)
	sum := exec.RowChecksum(res)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xF])
	}
	names := res.Schema().Names()
	dst = appendJSONArray(append(dst, "\",\n  \"columns\": "...), "  ", len(names), func(dst []byte, c int) []byte {
		return appendJSONString(dst, names[c])
	})
	dst = appendJSONFloat(append(dst, ",\n  \"cost\": "...), rt.Cost)
	dst = appendJSONString(append(dst, ",\n  \"route\": "...), rt.Kind.String())
	order := res.SortedOrder()
	batch := res.CachedColumns()
	var tuples []eve.Tuple
	if batch == nil {
		tuples = res.Tuples()
	}
	dst = appendJSONArray(append(dst, ",\n  \"rows\": "...), "  ", len(order), func(dst []byte, i int) []byte {
		p := int(order[i])
		return appendJSONArray(dst, "    ", len(names), func(dst []byte, c int) []byte {
			var v eve.Value
			if batch != nil {
				v = batch.Col(c).Value(p)
			} else {
				v = tuples[p][c]
			}
			if v.Type() == eve.TypeString {
				return appendJSONString(dst, v.AsString())
			}
			// Every other kind's text is digits, letters, '+', '-' and '.'.
			return append(v.AppendText(append(dst, '"')), '"')
		})
	})
	dst = strconv.AppendUint(append(dst, ",\n  \"versionSeqs\": [\n    "...), seq, 10)
	dst = appendJSONString(append(dst, "\n  ],\n  \"view\": "...), rt.View)
	return append(dst, "\n}\n"...)
}

// appendJSONArray appends an n-element array in the encoder's indented
// layout; indent is that of the line the array closes on, elem appends
// element i.
func appendJSONArray(dst []byte, indent string, n int, elem func(dst []byte, i int) []byte) []byte {
	if n == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '\n'), indent...), "  "...)
		dst = elem(dst, i)
	}
	return append(append(append(dst, '\n'), indent...), ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping on (the Encoder default).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case c == '"' || c == '\\':
			dst = append(dst, '\\', byte(c))
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			if k := strings.IndexByte("\b\f\n\r\t", byte(c)); k >= 0 {
				dst = append(dst, '\\', "bfnrt"[k])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			dst = append(dst, s[i:i+size]...)
		}
		i += size
	}
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes it. Two costs a response
// do not earn a copy of its exponent rules; Marshal spells them.
func appendJSONFloat(dst []byte, f float64) []byte {
	b, _ := json.Marshal(f) // route costs are finite
	return append(dst, b...)
}
