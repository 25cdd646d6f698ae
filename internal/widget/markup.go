package widget

import (
	"bytes"
	"io"
	"strconv"
	"unicode/utf8"

	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Markup is HTML under construction: each method appends one piece, byte
// for byte what fmt wrote before (Esc is html.EscapeString, Quote is %q,
// Float is %.Nf, Cell is Esc(v.String())), so a renderer chains its
// calls and writes once.
type Markup []byte

// NewMarkup starts a Markup in the spare capacity of w when w is the
// page's pooled *bytes.Buffer, so appending does not allocate; any other
// writer gets a fresh slice. Flush before anything else writes to w.
func NewMarkup(w io.Writer) Markup {
	if b, ok := w.(*bytes.Buffer); ok {
		return b.AvailableBuffer()
	}
	return nil
}

// Flush writes m to w.
func (m Markup) Flush(w io.Writer) error {
	_, err := w.Write(m)
	return err
}

// Raw appends s as it is.
func (m Markup) Raw(s string) Markup { return append(m, s...) }

var entities = [256]string{'&': "&amp;", '\'': "&#39;", '<': "&lt;", '>': "&gt;", '"': "&#34;"}

// Esc appends s with &, ', <, > and " escaped.
func (m Markup) Esc(s string) Markup {
	last := 0
	for i := 0; i < len(s); i++ {
		if e := entities[s[i]]; e != "" {
			m = append(append(m, s[last:i]...), e...)
			last = i + 1
		}
	}
	return append(m, s[last:]...)
}

// Quote appends s as a Go string literal.
func (m Markup) Quote(s string) Markup { return strconv.AppendQuote(m, s) }

// QuoteEsc appends Quote(html.EscapeString(s)). The escaped text is
// quoted in place unless it holds what Quote rewrites (a backslash,
// invalid UTF-8, a non-printing rune).
func (m Markup) QuoteEsc(s string) Markup {
	n := len(m)
	m = append(m, '"').Esc(s)
	for b := m[n+1:]; len(b) > 0; {
		r, size := utf8.DecodeRune(b)
		if r == '\\' || r == utf8.RuneError && size == 1 || !strconv.IsPrint(r) {
			return strconv.AppendQuote(m[:n], string(m[n+1:]))
		}
		b = b[size:]
	}
	return append(m, '"')
}

// Float appends f with prec decimals.
func (m Markup) Float(f float64, prec int) Markup { return strconv.AppendFloat(m, f, 'f', prec, 64) }

// Int appends n in decimal.
func (m Markup) Int(n int) Markup { return strconv.AppendInt(m, int64(n), 10) }

// Cell appends Esc(v.String()); only a string needs escaping.
func (m Markup) Cell(v value.V) Markup {
	if v.Kind() == value.String {
		return m.Esc(v.StrRaw())
	}
	return v.AppendTo(m)
}

// QuoteCell appends QuoteEsc(v.String()).
func (m Markup) QuoteCell(v value.V) Markup {
	if v.Kind() == value.String {
		return m.QuoteEsc(v.StrRaw())
	}
	return append(v.AppendTo(append(m, '"')), '"')
}

// Table appends t's column names and cells as a table head and body.
func (m Markup) Table(t *table.Table) Markup {
	s := t.Schema()
	m = m.Raw("<thead><tr>")
	for c := 0; c < s.Len(); c++ {
		m = m.Raw("<th>").Esc(s.Col(c).Name).Raw("</th>")
	}
	m = m.Raw("</tr></thead><tbody>")
	for i := 0; i < t.Len(); i++ {
		m = m.Raw("<tr>")
		for c := 0; c < s.Len(); c++ {
			m = m.Raw("<td>").Cell(t.At(i, c)).Raw("</td>")
		}
		m = m.Raw("</tr>")
	}
	return m.Raw("</tbody>")
}
