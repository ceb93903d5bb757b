package live

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/telemetry"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.GaugeFunc("proto", "datagrams", func() float64 { return 42 })
	reg.GaugeFunc("q", "depth", func() float64 { return 3 })

	ms, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	if text, want := scrape(t, ms.URL()+"/metrics"), "proto/datagrams 42\nq/depth 3\n"; text != want {
		t.Fatalf("/metrics = %q, want %q", text, want)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(scrape(t, ms.URL()+"/debug/vars")), &snap); err != nil {
		t.Fatalf("/debug/vars is not valid snapshot JSON: %v", err)
	}
	if snap.Gauges["proto/datagrams"] != 42 || snap.Gauges["q/depth"] != 3 {
		t.Fatalf("/debug/vars snapshot wrong: %+v", snap)
	}
}

// TestLiveMetricsUnderLoad scrapes a running dispatcher+worker system
// while requests flow — with -race this also proves the probes are safe
// against the serving goroutines.
func TestLiveMetricsUnderLoad(t *testing.T) {
	d, _, reg, cleanup := startSystem(t, 2, 2, 0)
	defer cleanup()

	ms, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// Scrape concurrently with the load.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = scrape(t, ms.URL()+"/metrics")
				time.Sleep(time.Millisecond)
			}
		}
	}()

	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        5_000,
		Service:    dist.Fixed{D: 10 * time.Microsecond},
		Requests:   500,
		Seed:       1,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-scraped

	// The dispatcher's completion counter can trail in-flight FINISH
	// datagrams; poll until the snapshot catches up with the client.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := reg.Snapshot()
		if snap.Gauges["dispatcher/completed"] >= float64(rep.Received) ||
			time.Now().After(deadline) {
			if snap.Gauges["dispatcher/completed"] < float64(rep.Received) {
				t.Fatalf("dispatcher/completed = %g, client received %d",
					snap.Gauges["dispatcher/completed"], rep.Received)
			}
			if snap.Gauges["dispatcher/workers_registered"] != 2 {
				t.Fatalf("workers_registered = %g", snap.Gauges["dispatcher/workers_registered"])
			}
			var workerSum float64
			workerSum += snap.Gauges["worker0/completed"]
			workerSum += snap.Gauges["worker1/completed"]
			if workerSum < float64(rep.Received) {
				t.Fatalf("worker completions %g < client received %d", workerSum, rep.Received)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
