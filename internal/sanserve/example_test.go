package sanserve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/sanserve"
)

// ExampleServer is the full client path: pack a timeline, mount it,
// and query a figure over HTTP.  Outside of tests the same handler is
// served by `sanserve -mount demo=demo.tl`.
func ExampleServer() {
	// Pack a tiny simulated evolution (stands in for `sanstore pack`).
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 4
	cfg.Days = 6
	cfg.Seed = 1
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		fmt.Println("pack:", err)
		return
	}

	srv := sanserve.New(sanserve.Options{
		Cfg: experiments.Config{Scale: 10, ModelT: 200, Seed: 1, DiamEvery: 3, HLLBits: 5},
	})
	if err := srv.Mount("demo", tl, nil); err != nil {
		fmt.Println("mount:", err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/figures/2?timeline=demo")
	if err != nil {
		fmt.Println("get:", err)
		return
	}
	defer resp.Body.Close()
	var fig sanserve.FigureResponse
	if err := json.NewDecoder(resp.Body).Decode(&fig); err != nil {
		fmt.Println("decode:", err)
		return
	}
	fmt.Println(resp.Status, fig.ID, "with", len(fig.Series), "series over", len(fig.Series[0].X), "days")
	// Output: 200 OK fig2 with 2 series over 6 days
}
