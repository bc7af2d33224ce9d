package platform

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The codec works on concrete little-endian loads and stores and swaps
// bytes for big-endian platforms, rather than calling through the
// binary.ByteOrder interface: an interface call makes every buffer passed
// to it escape, so each element store would allocate.

// PutUint writes the low size bytes of v into b in the platform's byte
// order. size must be 1, 2, 4 or 8 and len(b) must be at least size.
func (p *Platform) PutUint(b []byte, size int, v uint64) {
	big := p.Order == Big
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		x := uint16(v)
		if big {
			x = bits.ReverseBytes16(x)
		}
		binary.LittleEndian.PutUint16(b, x)
	case 4:
		x := uint32(v)
		if big {
			x = bits.ReverseBytes32(x)
		}
		binary.LittleEndian.PutUint32(b, x)
	case 8:
		if big {
			v = bits.ReverseBytes64(v)
		}
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("platform: bad scalar size %d", size))
	}
}

// Uint reads a size-byte unsigned integer from b in the platform's byte
// order.
func (p *Platform) Uint(b []byte, size int) uint64 {
	big := p.Order == Big
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		x := binary.LittleEndian.Uint16(b)
		if big {
			x = bits.ReverseBytes16(x)
		}
		return uint64(x)
	case 4:
		x := binary.LittleEndian.Uint32(b)
		if big {
			x = bits.ReverseBytes32(x)
		}
		return uint64(x)
	case 8:
		x := binary.LittleEndian.Uint64(b)
		if big {
			x = bits.ReverseBytes64(x)
		}
		return x
	default:
		panic(fmt.Sprintf("platform: bad scalar size %d", size))
	}
}

// PutInt writes a size-byte signed integer (two's complement) in the
// platform's byte order.
func (p *Platform) PutInt(b []byte, size int, v int64) {
	p.PutUint(b, size, uint64(v))
}

// Int reads a size-byte signed integer, sign-extending to 64 bits.
func (p *Platform) Int(b []byte, size int) int64 {
	u := p.Uint(b, size)
	shift := uint(64 - size*8)
	return int64(u<<shift) >> shift
}

// PutFloat32 writes an IEEE-754 single in the platform's byte order.
func (p *Platform) PutFloat32(b []byte, v float32) {
	p.PutUint(b, 4, uint64(math.Float32bits(v)))
}

// Float32 reads an IEEE-754 single in the platform's byte order.
func (p *Platform) Float32(b []byte) float32 {
	return math.Float32frombits(uint32(p.Uint(b, 4)))
}

// PutFloat64 writes an IEEE-754 double in the platform's byte order.
func (p *Platform) PutFloat64(b []byte, v float64) {
	p.PutUint(b, 8, math.Float64bits(v))
}

// Float64 reads an IEEE-754 double in the platform's byte order.
func (p *Platform) Float64(b []byte) float64 {
	return math.Float64frombits(p.Uint(b, 8))
}

// PutScalar stores v (one of int64, uint64, float32, float64) into b using
// the physical kind k. It is the generic path used by frame and global
// accessors; hot paths use the typed Put* methods directly.
func (p *Platform) PutScalar(b []byte, k Kind, v interface{}) {
	size := p.SizeOf(k)
	switch k {
	case Float32:
		p.PutFloat32(b, toFloat64AsFloat32(v))
	case Float64:
		p.PutFloat64(b, toFloat64(v))
	default:
		switch x := v.(type) {
		case int64:
			p.PutInt(b, size, x)
		case uint64:
			p.PutUint(b, size, x)
		case int:
			p.PutInt(b, size, int64(x))
		default:
			panic(fmt.Sprintf("platform: PutScalar(%v) with %T", k, v))
		}
	}
}

// Scalar loads a value of physical kind k from b. Integers come back as
// int64 (signed kinds) or uint64 (unsigned kinds and pointers); floats as
// float32/float64.
func (p *Platform) Scalar(b []byte, k Kind) interface{} {
	size := p.SizeOf(k)
	switch {
	case k == Float32:
		return p.Float32(b)
	case k == Float64:
		return p.Float64(b)
	case k.Signed():
		return p.Int(b, size)
	default:
		return p.Uint(b, size)
	}
}

func toFloat64(v interface{}) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	default:
		panic(fmt.Sprintf("platform: cannot treat %T as float", v))
	}
}

func toFloat64AsFloat32(v interface{}) float32 {
	return float32(toFloat64(v))
}
