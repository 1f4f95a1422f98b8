package b2w

import (
	"fmt"
	"strconv"

	"pstore/internal/engine"
	"pstore/internal/storage"
)

// Procedure names (Table 4).
const (
	ProcAddLineToCart          = "AddLineToCart"
	ProcDeleteLineFromCart     = "DeleteLineFromCart"
	ProcGetCart                = "GetCart"
	ProcDeleteCart             = "DeleteCart"
	ProcGetStock               = "GetStock"
	ProcGetStockQuantity       = "GetStockQuantity"
	ProcReserveStock           = "ReserveStock"
	ProcPurchaseStock          = "PurchaseStock"
	ProcCancelStockReservation = "CancelStockReservation"
	ProcCreateStockTransaction = "CreateStockTransaction"
	ProcReserveCart            = "ReserveCart"
	ProcGetStockTransaction    = "GetStockTransaction"
	ProcUpdateStockTransaction = "UpdateStockTransaction"
	ProcCreateCheckout         = "CreateCheckout"
	ProcCreateCheckoutPayment  = "CreateCheckoutPayment"
	ProcAddLineToCheckout      = "AddLineToCheckout"
	ProcDeleteLineFromCheckout = "DeleteLineFromCheckout"
	ProcGetCheckout            = "GetCheckout"
	ProcDeleteCheckout         = "DeleteCheckout"
)

// ProcedureNames lists all 19 benchmark transactions.
var ProcedureNames = []string{
	ProcAddLineToCart, ProcDeleteLineFromCart, ProcGetCart, ProcDeleteCart,
	ProcGetStock, ProcGetStockQuantity, ProcReserveStock, ProcPurchaseStock,
	ProcCancelStockReservation, ProcCreateStockTransaction, ProcReserveCart,
	ProcGetStockTransaction, ProcUpdateStockTransaction, ProcCreateCheckout,
	ProcCreateCheckoutPayment, ProcAddLineToCheckout, ProcDeleteLineFromCheckout,
	ProcGetCheckout, ProcDeleteCheckout,
}

// Register installs all benchmark procedures into the registry.
func Register(reg *engine.Registry) {
	reg.Register(ProcAddLineToCart, addLineToCart)
	reg.Register(ProcDeleteLineFromCart, deleteLineFromCart)
	reg.Register(ProcGetCart, getCart)
	reg.Register(ProcDeleteCart, deleteCart)
	reg.Register(ProcGetStock, getStock)
	reg.Register(ProcGetStockQuantity, getStockQuantity)
	reg.Register(ProcReserveStock, reserveStock)
	reg.Register(ProcPurchaseStock, purchaseStock)
	reg.Register(ProcCancelStockReservation, cancelStockReservation)
	reg.Register(ProcCreateStockTransaction, createStockTransaction)
	reg.Register(ProcReserveCart, reserveCart)
	reg.Register(ProcGetStockTransaction, getStockTransaction)
	reg.Register(ProcUpdateStockTransaction, updateStockTransaction)
	reg.Register(ProcCreateCheckout, createCheckout)
	reg.Register(ProcCreateCheckoutPayment, createCheckoutPayment)
	reg.Register(ProcAddLineToCheckout, addLineToCheckout)
	reg.Register(ProcDeleteLineFromCheckout, deleteLineFromCheckout)
	reg.Register(ProcGetCheckout, getCheckout)
	reg.Register(ProcDeleteCheckout, deleteCheckout)
}

// The procedures read through zero-copy TupleViews (tx.GetView) and write
// through the transaction's scratch column map (tx.ScratchCols): column
// values borrowed from a view may be placed in the scratch map because Put
// encodes the map into the store immediately and never retains it. No view
// or borrowed value is kept past procedure return — the tupleescape vet
// check enforces this.

// col returns the named column of a view ("" when absent or invalid).
func col(v storage.TupleView, name string) string {
	if !v.Valid() {
		return ""
	}
	s, _ := v.Col(name)
	return s
}

// addLineToCart adds an item to the shopping cart, creating the cart if it
// does not exist yet. The stored lines are edited in place (addLine), not
// decoded and re-encoded.
func addLineToCart(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCart, tx.Key)
	if err != nil {
		return err
	}
	var stored string
	if ok {
		stored = col(v, "lines")
	}
	qty, _ := strconv.Atoi(tx.Arg("qty"))
	if qty <= 0 {
		qty = 1
	}
	enc, err := addLine(stored, tx.Arg("sku"), qty, tx.Arg("price"))
	if err != nil {
		return err
	}
	cols := tx.ScratchCols()
	cols["lines"] = enc
	cols["status"] = StatusOpen
	return tx.Put(TableCart, tx.Key, cols)
}

// deleteLineFromCart removes an item from the cart.
func deleteLineFromCart(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCart, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("cart not found")
	}
	lines, err := decodeLines(col(v, "lines"))
	if err != nil {
		return err
	}
	sku := tx.Arg("sku")
	out := lines[:0]
	for _, l := range lines {
		if l.SKU != sku {
			out = append(out, l)
		}
	}
	enc, err := encodeLines(out)
	if err != nil {
		return err
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["lines"] = enc
	return tx.Put(TableCart, tx.Key, cols)
}

// getCart retrieves the items currently in the cart.
func getCart(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCart, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("cart not found")
	}
	tx.SetOut("lines", col(v, "lines"))
	tx.SetOut("status", col(v, "status"))
	return nil
}

// deleteCart deletes the shopping cart.
func deleteCart(tx *engine.Txn) error {
	_, err := tx.Delete(TableCart, tx.Key)
	return err
}

// getStock retrieves the stock inventory information for an item.
func getStock(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStock, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock item not found")
	}
	v.Range(func(name, val string) bool {
		tx.SetOut(name, val)
		return true
	})
	return nil
}

// getStockQuantity determines the availability of an item.
func getStockQuantity(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStock, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock item not found")
	}
	tx.SetOut("available", col(v, "available"))
	return nil
}

// stockInts parses the stock counters of a row.
func stockInts(v storage.TupleView) (available, reserved, sold int) {
	available, _ = strconv.Atoi(col(v, "available"))
	reserved, _ = strconv.Atoi(col(v, "reserved"))
	sold, _ = strconv.Atoi(col(v, "sold"))
	return
}

// putStock rewrites a stock row's counters, preserving its other columns.
func putStock(tx *engine.Txn, v storage.TupleView, available, reserved, sold int) error {
	cols := v.AliasCols(tx.ScratchCols())
	cols["available"] = strconv.Itoa(available)
	cols["reserved"] = strconv.Itoa(reserved)
	cols["sold"] = strconv.Itoa(sold)
	return tx.Put(TableStock, tx.Key, cols)
}

// reserveStock updates the inventory to mark an item as reserved; it aborts
// when availability is insufficient, which removes the item from the
// customer's cart at the application layer.
func reserveStock(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStock, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock item not found")
	}
	qty, _ := strconv.Atoi(tx.Arg("qty"))
	if qty <= 0 {
		qty = 1
	}
	available, reserved, sold := stockInts(v)
	if available < qty {
		return tx.Abort("insufficient stock")
	}
	return putStock(tx, v, available-qty, reserved+qty, sold)
}

// purchaseStock marks reserved units as purchased.
func purchaseStock(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStock, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock item not found")
	}
	qty, _ := strconv.Atoi(tx.Arg("qty"))
	if qty <= 0 {
		qty = 1
	}
	available, reserved, sold := stockInts(v)
	if reserved < qty {
		return tx.Abort("purchase exceeds reservation")
	}
	return putStock(tx, v, available, reserved-qty, sold+qty)
}

// cancelStockReservation returns reserved units to availability.
func cancelStockReservation(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStock, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock item not found")
	}
	qty, _ := strconv.Atoi(tx.Arg("qty"))
	if qty <= 0 {
		qty = 1
	}
	available, reserved, sold := stockInts(v)
	if reserved < qty {
		return tx.Abort("cancel exceeds reservation")
	}
	return putStock(tx, v, available+qty, reserved-qty, sold)
}

// createStockTransaction records that an item in a cart has been reserved.
func createStockTransaction(tx *engine.Txn) error {
	if _, ok, err := tx.GetView(TableStockTx, tx.Key); err != nil {
		return err
	} else if ok {
		return tx.Abort("stock transaction already exists")
	}
	cols := tx.ScratchCols()
	cols["sku"] = tx.Arg("sku")
	cols["qty"] = tx.Arg("qty")
	cols["cart_id"] = tx.Arg("cart_id")
	cols["status"] = StatusReserved
	return tx.Put(TableStockTx, tx.Key, cols)
}

// reserveCart marks the items in the shopping cart as reserved.
func reserveCart(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCart, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("cart not found")
	}
	lines, err := decodeLines(col(v, "lines"))
	if err != nil {
		return err
	}
	for i := range lines {
		lines[i].Status = StatusReserved
	}
	enc, err := encodeLines(lines)
	if err != nil {
		return err
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["lines"] = enc
	cols["status"] = StatusReserved
	return tx.Put(TableCart, tx.Key, cols)
}

// getStockTransaction retrieves a stock transaction.
func getStockTransaction(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStockTx, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock transaction not found")
	}
	v.Range(func(name, val string) bool {
		tx.SetOut(name, val)
		return true
	})
	return nil
}

// updateStockTransaction changes a stock transaction's status to purchased
// or cancelled.
func updateStockTransaction(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableStockTx, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("stock transaction not found")
	}
	status := tx.Arg("status")
	if status != StatusPurchased && status != StatusCancelled {
		return fmt.Errorf("b2w: invalid stock transaction status %q", status)
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["status"] = status
	return tx.Put(TableStockTx, tx.Key, cols)
}

// createCheckout starts the checkout process.
func createCheckout(tx *engine.Txn) error {
	if _, ok, err := tx.GetView(TableCheckout, tx.Key); err != nil {
		return err
	} else if ok {
		return tx.Abort("checkout already exists")
	}
	cols := tx.ScratchCols()
	cols["cart_id"] = tx.Arg("cart_id")
	cols["status"] = StatusOpen
	cols["lines"] = ""
	return tx.Put(TableCheckout, tx.Key, cols)
}

// createCheckoutPayment adds payment information to the checkout.
func createCheckoutPayment(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCheckout, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("checkout not found")
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["payment_method"] = tx.Arg("method")
	cols["payment_amount"] = tx.Arg("amount")
	return tx.Put(TableCheckout, tx.Key, cols)
}

// addLineToCheckout adds a new item to the checkout object.
func addLineToCheckout(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCheckout, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("checkout not found")
	}
	lines, err := decodeLines(col(v, "lines"))
	if err != nil {
		return err
	}
	qty, _ := strconv.Atoi(tx.Arg("qty"))
	if qty <= 0 {
		qty = 1
	}
	price, _ := strconv.ParseFloat(tx.Arg("price"), 64)
	lines = append(lines, Line{SKU: tx.Arg("sku"), Quantity: qty, Price: price})
	enc, err := encodeLines(lines)
	if err != nil {
		return err
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["lines"] = enc
	return tx.Put(TableCheckout, tx.Key, cols)
}

// deleteLineFromCheckout removes an item from the checkout object.
func deleteLineFromCheckout(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCheckout, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("checkout not found")
	}
	lines, err := decodeLines(col(v, "lines"))
	if err != nil {
		return err
	}
	sku := tx.Arg("sku")
	out := lines[:0]
	for _, l := range lines {
		if l.SKU != sku {
			out = append(out, l)
		}
	}
	enc, err := encodeLines(out)
	if err != nil {
		return err
	}
	cols := v.AliasCols(tx.ScratchCols())
	cols["lines"] = enc
	return tx.Put(TableCheckout, tx.Key, cols)
}

// getCheckout retrieves the checkout object.
func getCheckout(tx *engine.Txn) error {
	v, ok, err := tx.GetView(TableCheckout, tx.Key)
	if err != nil {
		return err
	}
	if !ok {
		return tx.Abort("checkout not found")
	}
	v.Range(func(name, val string) bool {
		tx.SetOut(name, val)
		return true
	})
	return nil
}

// deleteCheckout deletes the checkout object.
func deleteCheckout(tx *engine.Txn) error {
	_, err := tx.Delete(TableCheckout, tx.Key)
	return err
}
