package delta

// computeRef is Compute as it stood before the flat-index matcher, kept
// verbatim (map-of-slices index, multiply-per-byte hash, byte-at-a-time
// literals): the equivalence tests and FuzzCompute pin the matcher's wire
// bytes to it.
func computeRef(base, target []byte, blockSize int) *Delta {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	d := &Delta{BlockSize: blockSize, BaseLen: int64(len(base)), TargetLen: int64(len(target))}
	if len(target) == 0 {
		return d
	}
	if len(base) < blockSize {
		d.Ops = append(d.Ops, Op{Data: append([]byte(nil), target...)})
		return d
	}

	// Index base blocks by weak hash.
	blocks := map[uint32][]int{}
	for off := 0; off+blockSize <= len(base); off += blockSize {
		h := refWeakOf(base[off : off+blockSize]).sum()
		blocks[h] = append(blocks[h], off)
	}

	var pendingLit []byte
	flushLit := func() {
		if len(pendingLit) > 0 {
			d.Ops = append(d.Ops, Op{Data: pendingLit})
			pendingLit = nil
		}
	}
	emitCopy := func(off, n int) {
		// Merge with a preceding contiguous copy.
		if len(d.Ops) > 0 {
			last := &d.Ops[len(d.Ops)-1]
			if last.IsCopy() && last.Off+last.Len == int64(off) {
				last.Len += int64(n)
				return
			}
		}
		d.Ops = append(d.Ops, Op{Off: int64(off), Len: int64(n)})
	}

	i := 0
	var w weak
	valid := false
	for i+blockSize <= len(target) {
		if !valid {
			w = refWeakOf(target[i : i+blockSize])
			valid = true
		}
		matched := false
		if offs, ok := blocks[w.sum()]; ok {
			// Prefer the candidate that extends the previous copy, so
			// repetitive data collapses into one long contiguous op.
			var expect int64 = -1
			if len(d.Ops) > 0 && len(pendingLit) == 0 {
				if last := d.Ops[len(d.Ops)-1]; last.IsCopy() {
					expect = last.Off + last.Len
				}
			}
			pick := -1
			for _, off := range offs {
				if !refBytesEqual(base[off:off+blockSize], target[i:i+blockSize]) {
					continue
				}
				if pick < 0 {
					pick = off
				}
				if int64(off) == expect {
					pick = off
					break
				}
			}
			if pick >= 0 {
				flushLit()
				emitCopy(pick, blockSize)
				i += blockSize
				valid = false
				matched = true
			}
		}
		if !matched {
			pendingLit = append(pendingLit, target[i])
			if i+blockSize < len(target) {
				// Slide the window: drop target[i], take target[i+blockSize].
				w.roll(target[i], target[i+blockSize])
			} else {
				valid = false
			}
			i++
		}
	}
	pendingLit = append(pendingLit, target[i:]...)
	flushLit()
	return d
}

// refWeakOf is the multiply-per-byte checksum the reference hashed with.
func refWeakOf(p []byte) weak {
	var w weak
	w.n = uint32(len(p))
	for i, c := range p {
		w.a += uint32(c)
		w.b += uint32(len(p)-i) * uint32(c)
	}
	return w
}

func refBytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
