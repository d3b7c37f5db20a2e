package commitlog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openTestFileStore opens a FileStore in a fresh directory and closes it
// when the test ends.
func openTestFileStore(t *testing.T) (*FileStore, string) {
	t.Helper()
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	t.Cleanup(func() { fs.Close() }) //nolint:errcheck // test teardown
	return fs, dir
}

// openFDsUnder counts this process's descriptors on files under dir.
func openFDsUnder(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("descriptor table not readable: %v", err)
	}
	n := 0
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestFileStoreAppendToHeldSegmentAllocatesNothing pins the durable
// append's cost: on the segment the store last created, an append is
// one write on the held descriptor, with no path built and no file
// opened.
func TestFileStoreAppendToHeldSegmentAllocatesNothing(t *testing.T) {
	fs, dir := openTestFileStore(t)
	if err := fs.Create(0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	frame := appendRecordFrame(nil, 0, "k", make([]byte, 128))
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := fs.Append(0, frame); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}); n != 0 {
		t.Fatalf("an append to the held segment made %.0f allocations, want 0", n)
	}
	data, err := fs.Load(0)
	if err != nil || len(data) != (runs+1)*len(frame) {
		t.Fatalf("Load: %d bytes, %v; want %d", len(data), err, (runs+1)*len(frame))
	}
	if n := openFDsUnder(t, dir); n != 1 {
		t.Fatalf("store holds %d descriptors, want 1", n)
	}
}

// TestFileStoreAppendAfterRewriteOfHeldSegment pins that a rewrite
// drops the held descriptor: the next append lands in the renamed-in
// file, not in the inode the rename replaced.
func TestFileStoreAppendAfterRewriteOfHeldSegment(t *testing.T) {
	fs, _ := openTestFileStore(t)
	if err := fs.Create(0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.Append(0, []byte("old")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := fs.Rewrite(0, []byte("new")); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if _, err := fs.Append(0, []byte("+tail")); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	if data, err := fs.Load(0); err != nil || string(data) != "new+tail" {
		t.Fatalf("Load = %q, %v; want %q", data, err, "new+tail")
	}
}

// TestFileStoreAppendAfterRemoveOfHeldSegment pins that a removed
// segment takes no more writes, even while its descriptor was held.
func TestFileStoreAppendAfterRemoveOfHeldSegment(t *testing.T) {
	fs, dir := openTestFileStore(t)
	if err := fs.Create(0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.Append(0, []byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := fs.Remove(0); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if n, err := fs.Append(0, []byte("y")); !errors.Is(err, ErrNoSegment) || n != 0 {
		t.Fatalf("Append after Remove = %d, %v; want 0, ErrNoSegment", n, err)
	}
	if n := openFDsUnder(t, dir); n != 0 {
		t.Fatalf("store holds %d descriptors after removing its segment, want 0", n)
	}
}

// TestFileStoreAppendToMissingSegment pins that an append never creates
// a segment, whether or not another one is held.
func TestFileStoreAppendToMissingSegment(t *testing.T) {
	fs, _ := openTestFileStore(t)
	if _, err := fs.Append(7, []byte("x")); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("Append to a fresh store = %v, want ErrNoSegment", err)
	}
	if err := fs.Create(0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.Append(7, []byte("x")); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("Append beside a held segment = %v, want ErrNoSegment", err)
	}
	if _, err := fs.Append(0, []byte("x")); err != nil {
		t.Fatalf("Append to the held segment after a miss: %v", err)
	}
	if bases, err := fs.Segments(); err != nil || len(bases) != 1 || bases[0] != 0 {
		t.Fatalf("Segments = %v, %v; want [0]", bases, err)
	}
}

// TestFileStoreAppendsAcrossSegments pins that the store follows the
// log between segments: an append to an older segment reopens it in
// place of the held one, and each byte lands where it was sent.
func TestFileStoreAppendsAcrossSegments(t *testing.T) {
	fs, dir := openTestFileStore(t)
	for _, base := range []uint64{0, 5} {
		if err := fs.Create(base); err != nil {
			t.Fatalf("Create(%d): %v", base, err)
		}
	}
	for _, w := range []struct {
		base uint64
		data string
	}{{5, "b"}, {0, "a"}, {5, "c"}, {0, "d"}} {
		if _, err := fs.Append(w.base, []byte(w.data)); err != nil {
			t.Fatalf("Append(%d): %v", w.base, err)
		}
	}
	for base, want := range map[uint64]string{0: "ad", 5: "bc"} {
		if data, err := fs.Load(base); err != nil || string(data) != want {
			t.Fatalf("Load(%d) = %q, %v; want %q", base, data, err, want)
		}
	}
	if n := openFDsUnder(t, dir); n != 1 {
		t.Fatalf("store holds %d descriptors, want 1", n)
	}
}

// TestLogCloseRefusesAppends pins Close: the log turns read-only with
// ErrDead, its file store lets go of its descriptor and takes no late
// write, and what was appended before reopens whole.
func TestLogCloseRefusesAppends(t *testing.T) {
	fs, dir := openTestFileStore(t)
	l, err := Open(fs, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 6; i++ {
		mustAppend(t, l, "k", []byte{byte(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append("k", []byte("late")); !errors.Is(err, ErrDead) {
		t.Fatalf("Append after Close = %v, want ErrDead", err)
	}
	if got := len(l.Records(0)); got != 6 {
		t.Fatalf("closed log reads %d records, want 6", got)
	}
	if n := openFDsUnder(t, dir); n != 0 {
		t.Fatalf("closed store holds %d descriptors, want 0", n)
	}
	if _, err := fs.Append(4, []byte("late")); err == nil {
		t.Fatal("a closed file store took a write")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer fs2.Close() //nolint:errcheck // test teardown
	r, err := Open(fs2, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Records(0)); got != 6 {
		t.Fatalf("reopened log holds %d records, want 6", got)
	}

	mem, err := Open(NewMemStore(), Options{})
	if err != nil {
		t.Fatalf("Open MemStore: %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("Close over a MemStore: %v", err)
	}
	if _, err := mem.Append("k", nil); !errors.Is(err, ErrDead) {
		t.Fatalf("Append after Close over a MemStore = %v, want ErrDead", err)
	}
}

// BenchmarkFileStoreAppend measures one durable append of a 600-byte
// frame, about a status write's oplog record, to the held segment.
func BenchmarkFileStoreAppend(b *testing.B) {
	fs, err := OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck // benchmark teardown
	if err := fs.Create(0); err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 600)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fs.Append(0, frame); err != nil {
			b.Fatal(err)
		}
	}
}
