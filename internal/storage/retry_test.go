package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/faults"
)

// flakyReaderAt fails its first failN reads transiently (or every
// read with a permanent error), counting calls.
type flakyReaderAt struct {
	data  []byte
	failN int
	perm  error
	calls int
}

func (r *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.calls++
	if r.perm != nil {
		return 0, fmt.Errorf("decorated: %w", r.perm)
	}
	if r.calls <= r.failN {
		return 0, errors.New("transient I/O error")
	}
	return copy(p, r.data[off:]), nil
}

// retryingContainer is a bare container over ra that reads under
// policy — enough to drive readAt without a container layout.
func retryingContainer(ra io.ReaderAt, policy RetryPolicy) *ContainerFile {
	return &ContainerFile{ra: ra, retry: policy.withDefaults()}
}

func TestFaultRetryAbsorbsTransient(t *testing.T) {
	ra := &flakyReaderAt{data: []byte("payload"), failN: 2}
	cf := retryingContainer(ra, RetryPolicy{MaxRetries: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	got := make([]byte, 7)
	if err := cf.readAt(0, got); err != nil {
		t.Fatalf("read after transient failures: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("read = %q", got)
	}
	st := cf.ReadStats()
	if st.Retries != 2 || st.Giveups != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 0 giveups", st)
	}
}

func TestFaultRetryGivesUp(t *testing.T) {
	ra := &flakyReaderAt{data: []byte("payload"), failN: 100}
	cf := retryingContainer(ra, RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	if err := cf.readAt(0, make([]byte, 7)); err == nil {
		t.Fatal("read succeeded past the retry budget")
	}
	if ra.calls != 3 {
		t.Fatalf("reader called %d times, want 1 + 2 retries", ra.calls)
	}
	st := cf.ReadStats()
	if st.Retries != 2 || st.Giveups != 1 {
		t.Fatalf("stats = %+v, want 2 retries, 1 giveup", st)
	}
}

func TestFaultRetryNeverRetriesPermanent(t *testing.T) {
	for _, perm := range []error{ErrChecksum, ErrCorrupt} {
		ra := &flakyReaderAt{perm: perm}
		cf := retryingContainer(ra, RetryPolicy{MaxRetries: 5, BaseDelay: time.Microsecond})
		err := cf.readAt(0, make([]byte, 1))
		if !errors.Is(err, perm) {
			t.Fatalf("error %v does not preserve the permanent sentinel", err)
		}
		if ra.calls != 1 {
			t.Fatalf("%v: reader called %d times — permanent errors must not be retried", perm, ra.calls)
		}
		if st := cf.ReadStats(); st.Retries != 0 || st.Giveups != 0 {
			t.Fatalf("%v: stats = %+v, want zero", perm, st)
		}
	}
}

// buildV3 encodes one column and renders it as v3 container bytes.
func buildV3(t *testing.T, vals []int64, blockSize int) []byte {
	t.Helper()
	col, err := blocked.Encode(vals, blocked.EncodeOptions{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainerV3(&buf, []BlockedColumn{{Name: "c", Col: col}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultInjectedContainerSurvivesWithRetry is the end-to-end pairing:
// a container read through a deterministic fault injector answers every
// query correctly as long as the retry budget exceeds the injector's
// consecutive-failure bound — open-time index reads included.
func TestFaultInjectedContainerSurvivesWithRetry(t *testing.T) {
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = int64(i*3 - 1000)
	}
	data := buildV3(t, vals, 256)
	inj := faults.NewReaderAt(bytes.NewReader(data), faults.Config{
		Seed: 11, TransientProb: 0.5, MaxConsecutive: 2,
	})
	cf, err := OpenContainer(inj, int64(len(data)), OpenOptions{
		CacheBytes: -1,
		Retry:      RetryPolicy{MaxRetries: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatalf("open through injector: %v", err)
	}
	defer cf.Close()
	col := cf.Columns()[0].Col
	got, err := col.Decompress()
	if err != nil {
		t.Fatalf("decompress through injector: %v", err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("row %d: got %d want %d", i, got[i], vals[i])
		}
	}
	if inj.InjectedTransient() == 0 {
		t.Fatal("injector fired nothing — the test proved nothing")
	}
	if st := cf.ReadStats(); st.Retries == 0 || st.Giveups != 0 {
		t.Fatalf("ReadStats = %+v, want absorbed retries and no giveups", st)
	}
}

// TestFaultInjectedContainerFailsWithoutRetry pins the control case:
// the same injection with retries disabled surfaces the transient
// error instead of silently absorbing it.
func TestFaultInjectedContainerFailsWithoutRetry(t *testing.T) {
	data := buildV3(t, []int64{1, 2, 3, 4}, 2)
	inj := faults.NewReaderAt(bytes.NewReader(data), faults.Config{
		Seed: 11, TransientProb: 1, MaxConsecutive: 2,
	})
	_, err := OpenContainer(inj, int64(len(data)), OpenOptions{CacheBytes: -1})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("open without retry: %v, want the injected transient error", err)
	}
}
