package b2w

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// addLineReference is the decode → mutate → encodeLines semantics addLine
// must reproduce byte for byte.
func addLineReference(stored, sku string, qty int, priceArg string) (string, error) {
	lines, err := decodeLines(stored)
	if err != nil {
		return "", err
	}
	for i := range lines {
		if lines[i].SKU == sku {
			lines[i].Quantity += qty
			return encodeLines(lines)
		}
	}
	price, _ := strconv.ParseFloat(priceArg, 64)
	return encodeLines(append(lines, Line{SKU: sku, Quantity: qty, Price: price}))
}

func checkAddLine(t *testing.T, stored, sku string, qty int, priceArg string) {
	t.Helper()
	want, werr := addLineReference(stored, sku, qty, priceArg)
	got, gerr := addLine(stored, sku, qty, priceArg)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("addLine(%q, %q, %d, %q) err = %v, reference err = %v", stored, sku, qty, priceArg, gerr, werr)
	}
	if got != want {
		t.Fatalf("addLine(%q, %q, %d, %q) =\n %q\nreference\n %q", stored, sku, qty, priceArg, got, want)
	}
}

// TestAddLineMatchesDecodeEncode is the property test for the in-place cart
// edit: for carts encodeLines built, adding a line — to an existing SKU, a
// new SKU, a quantity crossing a digit boundary, an empty cart, or a legacy
// JSON value — yields exactly what decoding, mutating and re-encoding does.
func TestAddLineMatchesDecodeEncode(t *testing.T) {
	nine, err := encodeLines([]Line{
		{SKU: "a", Quantity: 3, Price: 1.5},
		{SKU: "b", Quantity: 9, Price: 19.99, Status: StatusReserved},
		{SKU: "c", Quantity: 99, Price: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal([]Line{{SKU: "a", Quantity: 1, Price: 2.25}, {SKU: "b", Quantity: 9, Price: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, stored, sku string
		qty               int
		price             string
	}{
		{"existing sku", nine, "a", 2, "1.5"},
		{"new sku", nine, "d", 4, "7.25"},
		{"9 to 10", nine, "b", 1, "19.99"},
		{"99 to 100 last line", nine, "c", 1, "0.1"},
		{"empty cart", "", "a", 1, "9.99"},
		{"unparsable price", "", "a", 1, "x"},
		{"separator in new sku", nine, "bad\x1fsku", 1, "1"},
		{"legacy json existing", string(legacy), "b", 1, "3"},
		{"legacy json new", string(legacy), "z", 2, "4.5"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAddLine(t, tc.stored, tc.sku, tc.qty, tc.price) })
	}

	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		lines := make([]Line, rng.Intn(9))
		for j := range lines {
			lines[j] = Line{
				SKU:      fmt.Sprintf("sku-%d", rng.Intn(12)),
				Quantity: rng.Intn(25),
				Price:    float64(rng.Intn(100000)) / 100,
			}
			if rng.Intn(4) == 0 {
				lines[j].Status = StatusReserved
			}
		}
		stored, err := encodeLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		price := strconv.FormatFloat(float64(rng.Intn(10000))/100, 'f', -1, 64)
		checkAddLine(t, stored, fmt.Sprintf("sku-%d", rng.Intn(14)), 1+rng.Intn(12), price)
	}
}
