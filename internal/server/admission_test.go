package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tango/internal/telemetry"
)

// TestAdmissionDeterministicShed is the deterministic overload test:
// with capacity K and zero queue, offering K + N statements admits
// exactly K and sheds exactly N — each rejection a typed, retryable
// ErrOverloaded carrying the configured backoff. A Query's admission
// unit is held until its cursor closes, which is what makes the
// scenario deterministic.
func TestAdmissionDeterministicShed(t *testing.T) {
	s := testServer(t)
	s.SetAdmission(AdmissionConfig{MaxInFlight: 2, MaxQueue: 0, RetryAfter: time.Millisecond})

	// Fill capacity: two open cursors hold both in-flight units.
	c1, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.QueryHdr(nil, "SELECT V FROM T", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Everything past capacity is shed, exactly and typed.
	const excess = 5
	for i := 0; i < excess; i++ {
		_, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
		var ov *ErrOverloaded
		if !errors.As(err, &ov) {
			t.Fatalf("offer %d: got %v, want ErrOverloaded", i, err)
		}
		if ov.Reason != "queue-full" {
			t.Fatalf("offer %d: reason %q, want queue-full", i, ov.Reason)
		}
		if ov.Backoff != time.Millisecond {
			t.Fatalf("offer %d: backoff %v, want 1ms", i, ov.Backoff)
		}
	}
	// Exec statements are gated by the same controller.
	if _, err := s.ExecHdr(nil, "INSERT INTO T VALUES (9,'z')"); err == nil {
		t.Fatal("Exec admitted past capacity")
	}
	if got := s.Shed(); got != excess+1 {
		t.Fatalf("Shed = %d, want %d", got, excess+1)
	}
	if got := s.Admitted(); got != 2 {
		t.Fatalf("Admitted = %d, want 2", got)
	}

	// Capacity frees when a cursor closes — the backoff-and-retry story.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("InFlight after close = %d, want 1", got)
	}
	c3, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatalf("query after capacity freed: %v", err)
	}
	_ = c3.Close()
	_ = c2.Close()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight after all closes = %d, want 0", got)
	}
	if n := s.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
}

// TestAdmissionQueueWait: a queued statement admits when a unit frees
// within the wait bound, and sheds with reason "queue-wait" when it
// does not.
func TestAdmissionQueueWait(t *testing.T) {
	s := testServer(t)
	s.SetAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond})

	cur, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Queued behind the open cursor; admitted once it closes.
	var wg sync.WaitGroup
	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := s.ExecHdr(nil, "INSERT INTO T VALUES (7,'g')")
		queuedErr <- err
	}()
	// Wait until the statement is actually queued, then free the unit.
	for i := 0; s.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	if got := s.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth = %d, want 1", got)
	}
	_ = cur.Close()
	wg.Wait()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued statement failed: %v", err)
	}

	// A statement that waits out the bound sheds typed.
	cur2, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ExecHdr(nil, "INSERT INTO T VALUES (8,'h')")
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != "queue-wait" {
		t.Fatalf("got %v, want ErrOverloaded(queue-wait)", err)
	}
	_ = cur2.Close()
}

// TestAdmissionMetricsExposition: the tango_server_* admission series
// render in the Prometheus exposition with the controller's counts.
func TestAdmissionMetricsExposition(t *testing.T) {
	s := testServer(t)
	s.SetAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0, RetryAfter: time.Millisecond})
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)

	cur, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryHdr(nil, "SELECT V FROM T", 2); err == nil {
		t.Fatal("second query admitted past capacity")
	}
	s.CountConnection()
	s.CountSessionAccepted()
	s.CountDrained()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"tango_server_connections_total 1",
		"tango_server_accepted_total 1",
		"tango_server_admitted_total 1",
		"tango_server_queued_total 0",
		"tango_server_shed_total 1",
		"tango_server_drained_total 1",
		"tango_admission_queue_depth 0",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
	_ = cur.Close()
}

// TestDrainRejectsTyped: a draining server rejects new statements with
// ErrShutdown (not retryable, not a hang); EndDrain restores service.
func TestDrainRejectsTyped(t *testing.T) {
	s := testServer(t)
	s.SetAdmission(AdmissionConfig{MaxInFlight: 4})
	s.StartDrain()
	if _, err := s.ExecHdr(nil, "INSERT INTO T VALUES (6,'f')"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("got %v, want ErrShutdown", err)
	}
	if _, err := s.QueryHdr(nil, "SELECT K FROM T", 2); !errors.Is(err, ErrShutdown) {
		t.Fatalf("got %v, want ErrShutdown", err)
	}
	s.EndDrain()
	cur, err := s.QueryHdr(nil, "SELECT K FROM T", 2)
	if err != nil {
		t.Fatalf("query after EndDrain: %v", err)
	}
	_ = cur.Close()
}
