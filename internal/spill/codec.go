package spill

import (
	"encoding/binary"
	"unsafe"
)

// hostLittle reports whether the host stores int32s in the record's
// on-disk byte order (little-endian). When it does, the payload arrays
// move between memory and the record in one bulk copy; otherwise the
// codec converts element by element.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// encodeInt32s writes v into dst as little-endian int32s.
func encodeInt32s(dst []byte, v []int32) {
	if len(v) == 0 {
		return
	}
	if hostLittle {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// decodeInt32s decodes the little-endian int32s in b into a freshly
// allocated slice.
func decodeInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	out := make([]int32, len(b)/4)
	if hostLittle {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
		return out
	}
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
