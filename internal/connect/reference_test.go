package connect

// packed returns the volume as the bitset the scan reads: FromBits' own
// bytes, or Data's > 0.5 voxels packed into a fresh one.
func (v *Volume) packed() []byte {
	if v.bits != nil {
		return v.bits
	}
	return packMask(nil, v.Data)
}

// neighborOffsets returns the offsets with strictly negative lexicographic
// order (already-visited voxels only), so each pair is united exactly once:
// the neighbourhood labelSerialReference unites over, which the raster scan
// and the boundary stitch enumerate row by row.
func neighborOffsets(conn Connectivity) [][3]int {
	switch conn {
	case Conn6:
		return [][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}
	case Conn26:
		var offs [][3]int
		for dt := -1; dt <= 0; dt++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dt == 0 && (dy > 0 || (dy == 0 && dx >= 0)) {
						continue
					}
					offs = append(offs, [3]int{dt, dy, dx})
				}
			}
		}
		return offs
	}
	panic("connect: unsupported connectivity")
}
