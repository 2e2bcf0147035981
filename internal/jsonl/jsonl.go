package jsonl

// Line walks the members of one canonical flat object, left to right.
// Every method names the member it expects next; the first thing that
// is not the canonical shape makes the Line decline for good — later
// calls return zero values and Close reports false — so a caller reads
// a whole line straight through and checks once, at Close, before it
// uses anything it read.
type Line struct {
	b        []byte
	i        int  // next unread byte
	members  int  // members consumed so far
	declined bool // sticky
}

// Open starts on line, which must begin with '{'.
func Open(line []byte) Line {
	if len(line) == 0 || line[0] != '{' {
		return Line{declined: true}
	}
	return Line{b: line, i: 1}
}

// keyEnd returns the offset just past `"key":` (and the comma that
// separates it from the previous member) when that is what comes next,
// or -1.
func (l *Line) keyEnd(key string) int {
	if l.declined {
		return -1
	}
	b, i := l.b, l.i
	if l.members > 0 {
		if i >= len(b) || b[i] != ',' {
			return -1
		}
		i++
	}
	end := i + len(key) + 3
	if end > len(b) || b[i] != '"' || string(b[i+1:end-2]) != key || b[end-2] != '"' || b[end-1] != ':' {
		return -1
	}
	return end
}

// Next reports whether the next member is named key, consuming nothing.
// It is how a caller reads a member its writer may omit.
func (l *Line) Next(key string) bool { return l.keyEnd(key) >= 0 }

// key consumes `"key":`, or declines.
func (l *Line) key(key string) bool {
	end := l.keyEnd(key)
	if end < 0 {
		l.declined = true
		return false
	}
	l.i = end
	l.members++
	return true
}

// String reads the member key, a plain string. The result aliases the
// line.
func (l *Line) String(key string) []byte {
	if !l.key(key) {
		return nil
	}
	return l.str()
}

func (l *Line) str() []byte {
	b, i := l.b, l.i
	if i >= len(b) || b[i] != '"' {
		l.declined = true
		return nil
	}
	i++
	for start := i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			l.i = i + 1
			return b[start:i]
		case c < 0x20 || c >= 0x80 || c == '\\':
			l.declined = true
			return nil
		}
	}
	l.declined = true // unterminated
	return nil
}

// Uint reads the member key, a plain unsigned integer no larger than
// max.
func (l *Line) Uint(key string, max uint64) uint64 {
	if !l.key(key) {
		return 0
	}
	return l.uint(max)
}

// uint reads the digits only: whatever follows them is the next
// token's to accept, so "1.5", "1e2" and "12x" decline there.
func (l *Line) uint(max uint64) uint64 {
	b, start := l.b, l.i
	i, v := start, uint64(0)
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if v > (max-d)/10 {
			l.declined = true
			return 0
		}
		v = v*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		l.declined = true
		return 0
	}
	l.i = i
	return v
}

// Bool reads the member key, true or false.
func (l *Line) Bool(key string) bool {
	if !l.key(key) {
		return false
	}
	rest := l.b[l.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		l.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		l.i += 5
		return false
	}
	l.declined = true
	return false
}

// open consumes `"key":[`, or declines.
func (l *Line) open(key string) bool {
	if !l.key(key) {
		return false
	}
	if l.i >= len(l.b) || l.b[l.i] != '[' {
		l.declined = true
		return false
	}
	l.i++
	return true
}

// more reports whether another array element follows, consuming the
// ',' before it — or the ']' after the last one.
func (l *Line) more(first bool) bool {
	if l.declined {
		return false
	}
	if l.i < len(l.b) {
		switch c := l.b[l.i]; {
		case c == ']':
			l.i++
			return false
		case first:
			return true
		case c == ',':
			l.i++
			return true
		}
	}
	l.declined = true
	return false
}

// Strings reads the member key, an array of plain strings, appending
// them to dst (which it returns, for reuse as scratch). The elements
// alias the line.
func (l *Line) Strings(key string, dst [][]byte) [][]byte {
	if !l.open(key) {
		return dst
	}
	for first := true; l.more(first); first = false {
		dst = append(dst, l.str())
	}
	return dst
}

// Uint32s reads the member key, an array of plain unsigned integers
// that fit 32 bits, into a slice of its own — empty rather than nil
// for "[]", as encoding/json has it.
func (l *Line) Uint32s(key string) []uint32 {
	if !l.open(key) {
		return nil
	}
	out := []uint32{}
	for first := true; l.more(first); first = false {
		out = append(out, uint32(l.uint(1<<32-1)))
	}
	return out
}

// Close reports whether the whole line was the canonical shape: no
// member left unread, '}' next and nothing after it. Only then does
// anything read from the Line mean what encoding/json would say it
// means.
func (l *Line) Close() bool {
	return !l.declined && l.i+1 == len(l.b) && l.b[l.i] == '}'
}
