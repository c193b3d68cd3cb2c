package obs

import (
	"reflect"
	"strings"
	"unicode"
)

// Field is one named value of a stats snapshot. Value holds an int64,
// a uint64 or a bool, as the source field does, so JSON renderings
// keep their types.
type Field struct {
	Name  string
	Value any
}

// Uint64 returns the value as a fixed-width wire encoding carries it:
// signed integers as two's complement, bools as 1 or 0.
func (f Field) Uint64() uint64 {
	switch v := f.Value.(type) {
	case int64:
		return uint64(v)
	case uint64:
		return v
	case bool:
		if v {
			return 1
		}
	}
	return 0
}

// AppendFields appends one Field per exported integer or bool field of
// the struct stats (or the struct it points to), in declaration order,
// named prefix + SnakeCase(field name). It is the one place a stats
// struct's fields are named: STAT, expvar and afraidctl all render
// through it, so a new counter is a new struct field and nothing more.
func AppendFields(dst []Field, prefix string, stats any) []Field {
	v := reflect.Indirect(reflect.ValueOf(stats))
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		var val any
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			val = fv.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			val = fv.Uint()
		case reflect.Bool:
			val = fv.Bool()
		default:
			continue
		}
		dst = append(dst, Field{Name: prefix + SnakeCase(sf.Name), Value: val})
	}
	return dst
}

// SnakeCase converts a Go identifier to the snake_case name its value
// is published under: NVRAMPersists → nvram_persists, ReadP50 →
// read_p50. A word starts at an upper-case letter that does not follow
// another, or that ends an acronym (is followed by a lower-case
// letter).
func SnakeCase(name string) string {
	r := []rune(name)
	var b strings.Builder
	for i, c := range r {
		if unicode.IsUpper(c) && i > 0 && (!unicode.IsUpper(r[i-1]) ||
			i+1 < len(r) && unicode.IsLower(r[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}
