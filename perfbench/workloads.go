package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/httpapp"
)

// op is one client request of a workload, with the check its response
// must pass.
type op struct {
	req *httpapp.Request
	// write marks a request that changes replicated state; its
	// replication lag is measured.
	write bool
	check func(*httpapp.Response) error
}

// workload is one traffic mix against one transformed subject. Every
// workload runs on the same deployment; only the traffic differs.
type workload struct {
	name    string
	subject string
	// rate is the fixed open-loop send rate in requests per second; a
	// run sends rate × seconds requests.
	rate float64
	// deployments is how many fresh deployments a run sets up, each
	// driven with its share of the requests. A traced run traces every
	// second one, so it needs at least two.
	deployments int
	// preloadRows fills the bookworm books table to this many rows at
	// the cloud during set-up (0: no preload).
	preloadRows int
	// gen builds n requests from the seeded generator.
	gen func(rng *rand.Rand, n int) []op
	// probeTable is the table whose point select the traced run times
	// on a live edge.
	probeTable string
}

// bookRows is the books table size of both bookworm workloads. Every
// inbound delta rebuilds the whole table on each node, six times per
// sync tick; at 500 rows that burst stays well short of saturating two
// cores when the machine runs slow.
const bookRows = 500

// bookStock is the stock each preloaded book starts with: far above
// the number of checkouts a run can make, so no checkout runs out.
const bookStock = 1000000

var workloads = []workload{
	// 95% point reads of a 500-row table: sqldb lookups, the VM and the
	// shared read slot serve most requests, and replication carries a
	// thin stream of small updates.
	{
		name:        "bookworm-read95",
		subject:     "bookworm",
		rate:        2000,
		deployments: 8,
		preloadRows: bookRows,
		gen:         func(rng *rand.Rand, n int) []op { return bookwormOps(rng, n, 0.05, 0) },
		probeTable:  "books",
	},
	// The same table with 50% checkout/return updates: the exclusive
	// slot, AfterInvoke mirror+persist, the WAL and the per-delta apply of
	// 500 rows on all three nodes do most of the work. The 5% GET
	// /popular reads keep the median request inside the update class
	// instead of on the boundary between reads and updates.
	{
		name:        "bookworm-write50",
		subject:     "bookworm",
		rate:        400,
		deployments: 8,
		preloadRows: bookRows,
		gen:         func(rng *rand.Rand, n int) []op { return bookwormOps(rng, n, 0.50, 0.05) },
		probeTable:  "books",
	},
	// 8 KiB uploads into an append-only history table, a spool directory
	// and global counters: files and large payloads make WAN and WAL
	// bytes dominate. Each of the three deployments takes 2000 requests,
	// so the state grows while the per-delta apply stays well short of
	// saturating replication.
	{
		name:        "mnist-spool",
		subject:     "mnist-rest",
		rate:        200,
		deployments: 3,
		gen:         mnistOps,
		probeTable:  "history",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shuffledKinds returns n kind indices, exactly round(n × share[k]) of
// each kind k (the remainder goes to the last kind), in seeded random
// order. Exact counts keep the state every run ends with the same
// size, whatever the seed.
func shuffledKinds(rng *rand.Rand, n int, shares []float64) []int {
	kinds := make([]int, 0, n)
	for k, s := range shares[:len(shares)-1] {
		for i := 0; i < int(float64(n)*s+0.5); i++ {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, len(shares)-1)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// bookwormOps is updateShare updates, popularShare GET /popular and
// the rest uniform GET /books/:id reads. Updates alternate POST
// /checkout and POST /return of the same book, so stock never drifts,
// and touch only preloaded books, whose stock cannot run out.
func bookwormOps(rng *rand.Rand, n int, updateShare, popularShare float64) []op {
	ops := make([]op, n)
	updates, book := 0, 0
	kinds := shuffledKinds(rng, n, []float64{updateShare, popularShare, 1 - updateShare - popularShare})
	for i, kind := range kinds {
		switch kind {
		case 0:
			path := "/return"
			if updates%2 == 0 {
				path = "/checkout"
				book = 6 + rng.Intn(bookRows-5)
			}
			updates++
			ops[i] = op{
				req:   postReq(path, []byte(fmt.Sprintf(`{"id": %d}`, book)), nil),
				write: true,
				check: checkUpdate(path),
			}
		case 1:
			ops[i] = op{req: getReq("/popular"), check: checkPopular}
		default:
			id := 1 + rng.Intn(bookRows)
			ops[i] = op{req: getReq(fmt.Sprintf("/books/%d", id)), check: checkBook(id)}
		}
	}
	return ops
}

// mnistImageBytes is the upload size of one digit image.
const mnistImageBytes = 8 * 1024

// mnistOps is 35% POST /predict-digit, 20% POST /train-sample (both
// 8 KiB uploads), 20% GET /accuracy and 25% GET /labels.
func mnistOps(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i, kind := range shuffledKinds(rng, n, []float64{0.35, 0.20, 0.20, 0.25}) {
		switch kind {
		case 0:
			ops[i] = op{req: postReq("/predict-digit", image(rng, i), nil), write: true, check: checkDigit("digit")}
		case 1:
			label := fmt.Sprint(rng.Intn(10))
			ops[i] = op{req: postReq("/train-sample", image(rng, i), map[string]string{"label": label}),
				write: true, check: checkDigit("guess")}
		case 2:
			ops[i] = op{req: getReq("/accuracy"), check: checkAccuracy}
		default:
			ops[i] = op{req: getReq("/labels"), check: checkLabels}
		}
	}
	return ops
}

// image is a seeded pseudo-random upload stamped with its index, so no
// two uploads are equal.
func image(rng *rand.Rand, i int) []byte {
	b := make([]byte, mnistImageBytes)
	rng.Read(b)
	copy(b, fmt.Sprintf("#%d#", i))
	return b
}

func getReq(path string) *httpapp.Request { return &httpapp.Request{Method: "GET", Path: path} }

func postReq(path string, body []byte, query map[string]string) *httpapp.Request {
	return &httpapp.Request{Method: "POST", Path: path, Body: body, Query: query}
}

// decodeOK requires status 200 and decodes the JSON body into v.
func decodeOK(resp *httpapp.Response, v any) error {
	if resp.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.Status, resp.Body)
	}
	if err := json.Unmarshal(resp.Body, v); err != nil {
		return fmt.Errorf("decoding body %q: %w", resp.Body, err)
	}
	return nil
}

func checkBook(id int) func(*httpapp.Response) error {
	return func(resp *httpapp.Response) error {
		var book struct {
			ID *float64 `json:"id"`
		}
		if err := decodeOK(resp, &book); err != nil {
			return err
		}
		if book.ID == nil || *book.ID != float64(id) {
			return fmt.Errorf("GET /books/%d returned %s", id, resp.Body)
		}
		return nil
	}
}

func checkUpdate(path string) func(*httpapp.Response) error {
	return func(resp *httpapp.Response) error {
		if path == "/checkout" && resp.Status == http.StatusConflict {
			return nil // a checkout of a book with zero stock
		}
		var out struct {
			OK bool `json:"ok"`
		}
		if err := decodeOK(resp, &out); err != nil {
			return err
		}
		if !out.OK {
			return fmt.Errorf("POST %s returned %s", path, resp.Body)
		}
		return nil
	}
}

func checkPopular(resp *httpapp.Response) error {
	var top []struct {
		Title string   `json:"title"`
		Loans *float64 `json:"loans"`
	}
	if err := decodeOK(resp, &top); err != nil {
		return err
	}
	if len(top) != 3 || top[0].Loans == nil {
		return fmt.Errorf("GET /popular returned %s", resp.Body)
	}
	return nil
}

func checkDigit(field string) func(*httpapp.Response) error {
	return func(resp *httpapp.Response) error {
		var out map[string]any
		if err := decodeOK(resp, &out); err != nil {
			return err
		}
		d, ok := out[field].(float64)
		if !ok || d < 0 || d > 9 || d != float64(int(d)) {
			return fmt.Errorf("%s out of 0-9 in %s", field, resp.Body)
		}
		return nil
	}
}

func checkAccuracy(resp *httpapp.Response) error {
	var out struct {
		Total *float64 `json:"total"`
	}
	if err := decodeOK(resp, &out); err != nil {
		return err
	}
	if out.Total == nil || *out.Total < 0 {
		return fmt.Errorf("GET /accuracy returned %s", resp.Body)
	}
	return nil
}

func checkLabels(resp *httpapp.Response) error {
	var labels []string
	if err := decodeOK(resp, &labels); err != nil {
		return err
	}
	if len(labels) != 10 {
		return fmt.Errorf("GET /labels returned %s", resp.Body)
	}
	return nil
}
