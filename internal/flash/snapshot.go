package flash

// Snapshot support: a block's whole state is its erase count, its retired
// flag and the live-sector counts of the pages programmed since the last
// erase. Pages past the write pointer hold nothing, so an archive of a
// lightly written device is proportional to what was written, not to its
// capacity.

// AppendWritten appends the live-sector count of every programmed page,
// one byte per page in page order, to dst.
func (b *Block) AppendWritten(dst []byte) []byte {
	for _, c := range b.live[:b.writePtr] {
		dst = append(dst, byte(c))
	}
	return dst
}

// Load gives a block fresh from NewBlocks its archived state: live holds
// one live-sector count per programmed page, as AppendWritten wrote them.
// The caller has validated it: at most Pages() entries, each one a count a
// page of this block can hold.
func (b *Block) Load(live []byte, erases int, retired bool) {
	if b.writePtr != 0 {
		panic("flash: loading state into a programmed block")
	}
	for i, c := range live {
		b.live[i] = int8(c)
		b.liveSectors += int(c)
	}
	b.writePtr = len(live)
	b.erases = erases
	b.retired = retired
}
