package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Wire response shapes (see the note on request bodies in workload.go).
type resultEntry struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type perturbation struct {
	Delta float64 `json:"delta"`
	Above int     `json:"above"`
	Below int     `json:"below"`
	Entry bool    `json:"entry"`
}

type region struct {
	Dim   int            `json:"dim"`
	Lo    float64        `json:"lo"`
	Hi    float64        `json:"hi"`
	Left  []perturbation `json:"left"`
	Right []perturbation `json:"right"`
}

type analyzeResponse struct {
	Result  []resultEntry `json:"result"`
	Regions []region      `json:"regions"`
	Cache   string        `json:"cache"`
}

type mutateResponse struct {
	Results []struct {
		ID    int    `json:"id"`
		Error string `json:"error"`
	} `json:"results"`
	Applied int `json:"applied"`
}

// reply is what the loader keeps of one response.
type reply struct {
	status  int
	err     error  // transport or decode failure
	cache   string // X-Cache (/topk) or the cache field (/analyze)
	result  []resultEntry
	regions []region
	ackID   int // writes: the id the server applied the op to
	bytes   int // response body size
}

// ok reports whether the reply is a well-formed 200 for its request.
func (r *reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// decodeReply parses body according to the request class and applies
// the cheap in-window shape checks; the full answer check is the
// oracle's, after the window.
func decodeReply(s step, status int, header http.Header, body []byte) *reply {
	r := &reply{status: status, bytes: len(body)}
	if status != http.StatusOK {
		return r
	}
	switch s.class {
	case opAnalyze:
		var ar analyzeResponse
		if r.err = json.Unmarshal(body, &ar); r.err != nil {
			return r
		}
		r.result, r.regions, r.cache = ar.Result, ar.Regions, ar.Cache
		if len(r.result) != topK || len(r.regions) != len(s.q.Dims) {
			r.status = -1
		}
	case opTopK:
		if r.err = json.Unmarshal(body, &r.result); r.err != nil {
			return r
		}
		r.cache = header.Get("X-Cache")
		if len(r.result) != topK {
			r.status = -1
		}
	case opUpdate:
		var mr mutateResponse
		if r.err = json.Unmarshal(body, &mr); r.err != nil {
			return r
		}
		if len(mr.Results) != 1 || mr.Results[0].Error != "" || mr.Applied != 1 {
			r.status = -1
			return r
		}
		r.ackID = mr.Results[0].ID
	}
	return r
}

// httpDoer is one closed-loop caller's connection.
type httpDoer struct {
	hc  *http.Client
	url string
}

// newDoer gives each caller its own single-connection transport, so the
// number of server-side connections equals the workload's client count.
func newDoer(url string) *httpDoer {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &httpDoer{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url}
}

func (d *httpDoer) close() { d.hc.CloseIdleConnections() }

// do sends one request and returns the reply and the client-observed
// latency: from just before the send until the whole body is read.
// Decoding happens after the clock stops.
func (d *httpDoer) do(s step) (*reply, time.Duration) {
	t0 := time.Now()
	resp, err := d.hc.Post(d.url+s.path, "application/json", bytes.NewReader(s.body))
	if err != nil {
		return &reply{err: err}, time.Since(t0)
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return &reply{err: err}, lat
	}
	return decodeReply(s, resp.StatusCode, resp.Header, body), lat
}

// opSample is one completed correct request.
type opSample struct {
	class opClass
	end   time.Time // when the whole body had been read
	ms    float64   // client-observed latency
}

// clientLog is what one caller measured.
type clientLog struct {
	ops        []opSample
	attempted  int
	failed     int
	lagMicros  []float64 // reply received → next request sent
	tupleBytes int64     // user tuple bytes sent in acknowledged writes
	acks       []writeOp // acknowledged writes, in order
}

// drive runs one closed-loop caller: each request waits for the previous
// reply. It stops after limit requests (limit > 0) or at deadline.
func drive(d *httpDoer, st stream, limit int, deadline time.Time, log *clientLog) {
	var lastReply time.Time
	for n := 0; limit <= 0 || n < limit; n++ {
		if limit <= 0 && !time.Now().Before(deadline) {
			break
		}
		s := st.next()
		if !lastReply.IsZero() {
			log.lagMicros = append(log.lagMicros, float64(time.Since(lastReply).Nanoseconds())/1e3)
		}
		rep, lat := d.do(s)
		lastReply = time.Now()
		log.attempted++
		if !rep.ok() {
			log.failed++
		} else {
			log.ops = append(log.ops, opSample{s.class, lastReply, float64(lat.Nanoseconds()) / 1e6})
			if s.write != nil {
				op := *s.write
				op.id = rep.ackID
				log.acks = append(log.acks, op)
				log.tupleBytes += 12 * int64(len(op.tuple))
			}
		}
		st.observe(s, rep)
	}
}

// driveAll runs every caller of a workload concurrently and returns
// their logs.
func driveAll(doers []*httpDoer, streams []stream, limit int, window time.Duration) []*clientLog {
	logs := make([]*clientLog, len(doers))
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := range doers {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			drive(doers[i], streams[i], limit, deadline, logs[i])
		}(i)
	}
	wg.Wait()
	return logs
}

// percentile returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank rule on a sorted copy; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(len(s)-1, max(0, rank))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
