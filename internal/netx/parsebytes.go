package netx

import (
	"bytes"
	"net/netip"
)

// ParseAddrBytes parses a textual IPv4 or IPv6 address directly from a
// byte slice without allocating. netip.ParseAddr takes a string, so
// callers holding line-oriented input (bufio.Scanner tokens, NDJSON
// field slices) would pay one string conversion per call; the httpd
// bulk path parses millions of lines per request and its per-line alloc
// guard depends on this function staying allocation-free.
//
// The accepted grammar matches netip.ParseAddr for plain addresses:
// dotted-quad IPv4 (no leading zeros, each octet 0-255) and RFC 4291
// IPv6 text forms (full groups, :: compression, a trailing embedded
// dotted-quad as in "::ffff:1.2.3.4"). Zoned addresses ("fe80::1%eth0")
// are intentionally rejected — query traffic has no use for them — so
// callers needing zones fall back to netip.ParseAddr. Equivalence with
// netip.ParseAddr over the accepted grammar is property-tested.
func ParseAddrBytes(b []byte) (netip.Addr, bool) {
	for _, c := range b {
		switch c {
		case ':':
			return parseV6Bytes(b)
		case '.':
			return parseV4Bytes(b)
		}
	}
	return netip.Addr{}, false
}

// parseV4Bytes parses dotted-quad IPv4 with netip's strictness: exactly
// four octets, no empty fields, no leading zeros, each ≤ 255.
func parseV4Bytes(b []byte) (netip.Addr, bool) {
	var out [4]byte
	field := 0
	i := 0
	for field < 4 {
		start := i
		v := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			v = v*10 + int(b[i]-'0')
			if v > 255 {
				return netip.Addr{}, false
			}
			i++
		}
		n := i - start
		if n == 0 || (n > 1 && b[start] == '0') {
			return netip.Addr{}, false
		}
		out[field] = byte(v)
		field++
		if field < 4 {
			if i >= len(b) || b[i] != '.' {
				return netip.Addr{}, false
			}
			i++
		}
	}
	if i != len(b) {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4(out), true
}

// parseV6Bytes parses the RFC 4291 IPv6 text forms: up to eight 16-bit
// hex groups, at most one "::" compression, and an optional trailing
// embedded dotted-quad standing in for the last two groups.
func parseV6Bytes(b []byte) (netip.Addr, bool) {
	var out [16]byte
	ellipsis := -1 // byte offset in out where :: was seen
	i := 0
	filled := 0

	if len(b) >= 2 && b[0] == ':' && b[1] == ':' {
		ellipsis = 0
		i = 2
		if i == len(b) { // "::"
			return netip.AddrFrom16(out), true
		}
	} else if len(b) > 0 && b[0] == ':' {
		return netip.Addr{}, false // single leading colon
	}

	for filled < 16 {
		// One hex group, at most four digits.
		v := 0
		start := i
		for i < len(b) && i-start < 4 {
			d := hexVal(b[i])
			if d < 0 {
				break
			}
			v = v<<4 | d
			i++
		}
		if i == start {
			return netip.Addr{}, false // empty group
		}
		if i < len(b) && b[i] == '.' {
			// The group is actually the first octet of an embedded
			// IPv4 tail ("::ffff:1.2.3.4"); it occupies four bytes.
			if filled+4 > 16 {
				return netip.Addr{}, false
			}
			// Backtrack: hand the rest of the slice to the v4 parser.
			a4, ok := parseV4Bytes(b[start:])
			if !ok {
				return netip.Addr{}, false
			}
			v4 := a4.As4()
			copy(out[filled:], v4[:])
			filled += 4
			i = len(b)
			break
		}
		out[filled] = byte(v >> 8)
		out[filled+1] = byte(v)
		filled += 2
		if i == len(b) {
			break
		}
		if b[i] != ':' {
			return netip.Addr{}, false
		}
		i++
		if i < len(b) && b[i] == ':' {
			if ellipsis >= 0 {
				return netip.Addr{}, false // second ::
			}
			ellipsis = filled
			i++
			if i == len(b) { // trailing "::"
				break
			}
		} else if i == len(b) {
			return netip.Addr{}, false // trailing single colon
		}
	}
	if i != len(b) {
		return netip.Addr{}, false
	}
	if filled < 16 {
		if ellipsis < 0 {
			return netip.Addr{}, false
		}
		// Slide everything after the :: to the tail, zero the gap.
		n := filled - ellipsis
		copy(out[16-n:], out[ellipsis:filled])
		for j := ellipsis; j < 16-n; j++ {
			out[j] = 0
		}
	} else if ellipsis >= 0 {
		return netip.Addr{}, false // :: in a full address
	}
	return netip.AddrFrom16(out), true
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// ParsePrefixBytes parses "addr/bits" from a byte slice without
// allocating, returning the prefix as written — host bits kept, as
// netip.ParsePrefix does. The address grammar is ParseAddrBytes's; the
// length is one to three digits with no sign or leading zero, within
// the address family. Whatever it rejects may still be a prefix
// netip.ParsePrefix accepts or has a better error for: callers fall
// back to it.
func ParsePrefixBytes(b []byte) (netip.Prefix, bool) {
	slash := bytes.LastIndexByte(b, '/')
	if slash < 0 {
		return netip.Prefix{}, false
	}
	addr, ok := ParseAddrBytes(b[:slash])
	digits := b[slash+1:]
	if !ok || len(digits) == 0 || len(digits) > 3 || (digits[0] == '0' && len(digits) > 1) {
		return netip.Prefix{}, false
	}
	bits := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return netip.Prefix{}, false
		}
		bits = bits*10 + int(c-'0')
	}
	if bits > addr.BitLen() {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(addr, bits), true
}
