// Package b2w implements the B2W online-retail benchmark of Appendix C: the
// cart/checkout/stock schema (Fig 14) and all 19 stored procedures of
// Table 4, plus a trace-driven workload driver. Every transaction accesses
// a single partitioning key (a cart, checkout, stock-item or
// stock-transaction ID), matching the property the paper relies on ("the
// B2W benchmark has no distributed transactions").
package b2w

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Table names of the simplified B2W database (Fig 14).
const (
	TableCart     = "CART"
	TableCheckout = "CHECKOUT"
	TableStock    = "STOCK"
	TableStockTx  = "STOCK_TRANSACTION"
)

// Tables lists every table for cluster setup.
var Tables = []string{TableCart, TableCheckout, TableStock, TableStockTx}

// Line is one cart or checkout line item.
type Line struct {
	SKU      string  `json:"sku"`
	Quantity int     `json:"qty"`
	Price    float64 `json:"price"`
	Status   string  `json:"status,omitempty"` // "", "reserved"
}

// Cart lines are stored in a compact field-separated format rather than
// JSON: line items are the single hottest value on the transaction path
// (every cart/checkout procedure decodes and re-encodes them), and
// reflection-based JSON was the largest allocation source in the whole
// request hot path. Records are separated by 0x1E, fields by 0x1F:
//
//	sku \x1f qty \x1f price [ \x1f status ]  (status omitted when empty)
//
// Decoding slices fields out of the stored string without copying.
const (
	lineSep  = '\x1e'
	fieldSep = '\x1f'
)

// encodeLines serializes line items for storage in a row column.
func encodeLines(lines []Line) (string, error) {
	if len(lines) == 0 {
		return "", nil
	}
	var sb strings.Builder
	sb.Grow(24 * len(lines))
	for i, l := range lines {
		if i > 0 {
			sb.WriteByte(lineSep)
		}
		if err := writeLine(&sb, l); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// writeLine writes one line record, refusing fields that would smuggle in a
// separator.
func writeLine(sb *strings.Builder, l Line) error {
	if strings.ContainsAny(l.SKU, "\x1e\x1f") || strings.ContainsAny(l.Status, "\x1e\x1f") {
		return fmt.Errorf("b2w: line field contains separator byte: %+v", l)
	}
	var scratch [40]byte
	sb.WriteString(l.SKU)
	sb.WriteByte(fieldSep)
	b := strconv.AppendInt(scratch[:0], int64(l.Quantity), 10)
	b = append(b, fieldSep)
	b = strconv.AppendFloat(b, l.Price, 'g', -1, 64)
	sb.Write(b)
	if l.Status != "" {
		sb.WriteByte(fieldSep)
		sb.WriteString(l.Status)
	}
	return nil
}

// addLine returns lines with qty more of sku, editing the encoded value
// instead of decoding it: the first line holding sku gets its quantity
// digits replaced and every other byte is copied verbatim; without one, a
// new line record (priced from priceArg) is appended. For values
// encodeLines wrote, the result is byte-identical to decoding, mutating
// and re-encoding. Legacy JSON values take that decode path and come back
// in the compact format.
func addLine(lines, sku string, qty int, priceArg string) (string, error) {
	if strings.HasPrefix(lines, "[") {
		decoded, err := decodeLines(lines)
		if err != nil {
			return "", err
		}
		for i := range decoded {
			if decoded[i].SKU == sku {
				decoded[i].Quantity += qty
				return encodeLines(decoded)
			}
		}
		price, _ := strconv.ParseFloat(priceArg, 64)
		return encodeLines(append(decoded, Line{SKU: sku, Quantity: qty, Price: price}))
	}
	for start := 0; start < len(lines); {
		end := len(lines)
		if i := strings.IndexByte(lines[start:], lineSep); i >= 0 {
			end = start + i
		}
		rec := lines[start:end]
		if i := strings.IndexByte(rec, fieldSep); i >= 0 && rec[:i] == sku {
			qStart, qEnd := start+i+1, end
			if j := strings.IndexByte(lines[qStart:end], fieldSep); j >= 0 {
				qEnd = qStart + j
			}
			q, err := strconv.Atoi(lines[qStart:qEnd])
			if err != nil {
				return "", fmt.Errorf("b2w: decoding line qty %q: %w", lines[qStart:qEnd], err)
			}
			var digits [20]byte
			d := strconv.AppendInt(digits[:0], int64(q+qty), 10)
			var sb strings.Builder
			sb.Grow(len(lines) - (qEnd - qStart) + len(d))
			sb.WriteString(lines[:qStart])
			sb.Write(d)
			sb.WriteString(lines[qEnd:])
			return sb.String(), nil
		}
		start = end + 1
	}
	price, _ := strconv.ParseFloat(priceArg, 64)
	var sb strings.Builder
	sb.Grow(len(lines) + len(sku) + 32)
	if lines != "" {
		sb.WriteString(lines)
		sb.WriteByte(lineSep)
	}
	if err := writeLine(&sb, Line{SKU: sku, Quantity: qty, Price: price}); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// decodeLines parses line items from a row column ("" means none). Legacy
// JSON-encoded values (from data directories written before the compact
// format) are still understood.
func decodeLines(s string) ([]Line, error) {
	if s == "" {
		return nil, nil
	}
	if s[0] == '[' {
		var lines []Line
		if err := json.Unmarshal([]byte(s), &lines); err != nil {
			return nil, fmt.Errorf("b2w: decoding lines: %w", err)
		}
		return lines, nil
	}
	lines := make([]Line, 0, strings.Count(s, string(rune(lineSep)))+1)
	for len(s) > 0 {
		rec := s
		if i := strings.IndexByte(s, lineSep); i >= 0 {
			rec, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		var l Line
		for f := 0; f < 4; f++ {
			field := rec
			if i := strings.IndexByte(rec, fieldSep); i >= 0 {
				field, rec = rec[:i], rec[i+1:]
			} else {
				rec = ""
			}
			switch f {
			case 0:
				l.SKU = field
			case 1:
				q, err := strconv.Atoi(field)
				if err != nil {
					return nil, fmt.Errorf("b2w: decoding line qty %q: %w", field, err)
				}
				l.Quantity = q
			case 2:
				p, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("b2w: decoding line price %q: %w", field, err)
				}
				l.Price = p
			case 3:
				l.Status = field
			}
			if rec == "" && f >= 2 {
				break
			}
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// Cart / checkout / stock-transaction status values.
const (
	StatusOpen      = "open"
	StatusReserved  = "reserved"
	StatusPurchased = "purchased"
	StatusCancelled = "cancelled"
)
