package benchkit

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestMeasureRunsAtLeastOnce(t *testing.T) {
	runs := 0
	d := Measure(0, func() { runs++ })
	if runs != 1 || d < 0 {
		t.Fatalf("runs=%d d=%v", runs, d)
	}
	runs = 0
	Measure(5, func() { runs++ })
	if runs != 5 {
		t.Fatalf("runs=%d, want 5", runs)
	}
}

func TestRatioAndSeconds(t *testing.T) {
	if got := Ratio(2*time.Second, time.Second); got != "2.00x" {
		t.Fatalf("Ratio = %q", got)
	}
	if got := Ratio(time.Second, 0); got != "inf" {
		t.Fatalf("Ratio zero = %q", got)
	}
	if got := Seconds(1500 * time.Millisecond); got != "1.500s" {
		t.Fatalf("Seconds = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "time")
	tb.AddRow("a", time.Second)
	tb.AddRow("longer-name", 0.5)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[2], "1.000s") {
		t.Fatalf("unexpected table:\n%s", buf.String())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow("has,comma", "has\"quote")
	var buf bytes.Buffer
	tb.FprintCSV(&buf)
	want := "x,y\n\"has,comma\",\"has\"\"quote\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}
