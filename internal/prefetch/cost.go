package prefetch

// TableCost describes the storage of one MT-HWP table (Table VI).
type TableCost struct {
	Name         string
	Fields       string
	BitsPerEntry int
	Entries      int
}

// TotalBits returns the table's storage in bits.
func (t TableCost) TotalBits() int { return t.BitsPerEntry * t.Entries }

// MTHWPCost reproduces Table VI: the hardware budget of MT-HWP with the
// evaluated 32-entry PWS, 8-entry GS and 8-entry IP tables.
//
// Field widths, from the paper: PC 4B, warp id 1B, train bit 1b, last
// address 4B, stride 20b; the IP table keeps two (wid, addr) pairs.
func MTHWPCost() []TableCost {
	const (
		pcBits     = 32 // PC (4B)
		widBits    = 8  // wid (1B)
		trainBits  = 1
		addrBits   = 32 // last addr (4B)
		strideBits = 20
	)
	return []TableCost{
		{
			Name:         "PWS",
			Fields:       "PC (4B), wid (1B), train (1b), last (4B), stride (20b)",
			BitsPerEntry: pcBits + widBits + trainBits + addrBits + strideBits, // 93
			Entries:      32,
		},
		{
			Name:         "GS",
			Fields:       "PC (4B), stride (20b)",
			BitsPerEntry: pcBits + strideBits, // 52
			Entries:      8,
		},
		{
			Name:         "IP",
			Fields:       "PC (4B), stride (20b), train (1b), 2-wid (2B), 2-addr (8B)",
			BitsPerEntry: pcBits + strideBits + trainBits + 2*widBits + 2*addrBits, // 133
			Entries:      8,
		},
	}
}

// MTHWPCostBytes returns the total MT-HWP storage rounded up to bytes
// (557 bytes in the paper).
func MTHWPCostBytes() int {
	bits := 0
	for _, t := range MTHWPCost() {
		bits += t.TotalBits()
	}
	return (bits + 7) / 8
}
