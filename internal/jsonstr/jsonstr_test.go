package jsonstr

import (
	"encoding/json"
	"testing"
)

// cases are strings encoding/json escapes: HTML characters, quotes and
// backslashes, every control byte, the two JS line separators, invalid and
// truncated UTF-8, and multi-byte runes it leaves alone.
func cases() []string {
	ss := []string{
		"", "plain", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
		"sep" + string(rune(0x2028)) + "para" + string(rune(0x2029)) + "end",
		"bad" + string([]byte{0xff, 0xfe}) + "utf8" + string([]byte{0xe2, 0x80}),
		"emoji " + string(rune(0x1F600)) + " and " + string(rune(0x65E5)),
	}
	for b := 0; b < 256; b++ {
		ss = append(ss, "x"+string([]byte{byte(b)})+"y")
	}
	return ss
}

// TestAppendMatchesMarshal: Append is json.Marshal of a string, byte for
// byte, appended after what buf already holds.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range cases() {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("Append(%q) = %s, want prefix%s", s, got, want)
		}
	}
}
