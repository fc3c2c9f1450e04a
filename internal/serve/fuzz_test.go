package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzHandler serves the beer artifact for the request-body fuzz
// targets. Score batches dispatch at once (no linger window), so each
// input costs what its own work costs.
func fuzzHandler(f *testing.F) http.Handler {
	art, _ := beerArtifact(f)
	s := New(art, Config{Linger: -1})
	f.Cleanup(s.Close)
	return s.Handler()
}

// checkAnswer posts body to path and fails unless the answer is a 200
// with a JSON body or a 4xx whose JSON body names an error: outside
// bytes must never produce a 5xx (a contained panic answers 500).
func checkAnswer(t *testing.T, h http.Handler, path string, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	out := rec.Body.Bytes()
	switch {
	case rec.Code == http.StatusOK:
		if !json.Valid(out) {
			t.Fatalf("POST %s %q: 200 with a body that is not JSON: %q", path, body, out)
		}
	case rec.Code >= 400 && rec.Code < 500:
		var e errorResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Fatalf("POST %s %q: %d without a JSON error body: %q", path, body, rec.Code, out)
		}
	default:
		t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, out)
	}
}

// matchBody renders a match request over the beer schema whose tables
// hold the given rows (id first, then one value per attribute).
func matchBody(schema []string, left, right [][]string) []byte {
	table := func(rows [][]string) tableJSON {
		t := tableJSON{Schema: schema}
		for _, r := range rows {
			t.Rows = append(t.Rows, rowJSON{ID: r[0], Values: r[1:]})
		}
		return t
	}
	raw, err := json.Marshal(matchRequest{Left: table(left), Right: table(right)})
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzMatchRequest posts arbitrary bytes to /v1/match. The route builds
// a candidate index and a token-set arena per request, sized from the
// untrusted tables.
func FuzzMatchRequest(f *testing.F) {
	art, _ := beerArtifact(f)
	schema := art.Meta.Schema
	long := strings.Repeat("hoppy double imperial stout ", 5)
	f.Add(matchBody(schema,
		[][]string{{"l1", "Sonix Pale Ale", "Sonix Brewing", "American Pale Ale", "5.6"}, {"l2", "Iron Porter", "Iron Works", "Porter", "6.1"}},
		[][]string{{"r1", "Sonix Pale Ale", "Sonix Brewing Co", "American Pale Ale", "5.6"}, {"r2", "Iron Porter", "Ironworks", "Porter", ""}}))
	f.Add(matchBody(schema,
		[][]string{{"l1", "", "", "", ""}, {"l2", "   ", "\t", " \n ", "  "}},
		[][]string{{"r1", "", " ", "", ""}, {"r2", "Iron Porter", "   ", "Porter", ""}}))
	f.Add(matchBody(schema,
		[][]string{{"l1", long, long, "Stout", "9.5"}},
		[][]string{{"r1", long + "x", "Imperial", "Stout", "9.5"}, {"r2", long, long, long, long}}))
	f.Add(matchBody(schema,
		[][]string{{"dup", "Sonix Pale Ale", "Sonix", "Ale", "5"}, {"dup", "Sonix Pale Ale", "Sonix", "Ale", "5"}},
		[][]string{{"dup", "Sonix Pale Ale", "Sonix", "Ale", "5"}, {"dup", "Sonix Pale", "Sonix", "Ale", "5"}}))
	f.Add(matchBody([]string{"name"}, [][]string{{"l1", "Sonix"}}, [][]string{{"r1", "Sonix"}}))
	f.Add([]byte(`{"left":{"schema":["beer_name","brew_factory_name","style","ABV"],"rows":[{"id":"l1","values":["\ud800 ale","\udfff","\ud83c","5"]}]},` +
		`"right":{"schema":["beer_name","brew_factory_name","style","ABV"],"rows":[{"id":"r1","values":["\ud800 ale","\u0000","x","5"]}]}}`))
	f.Add([]byte("{\"left\":{\"schema\":[\"beer_name\",\"brew_factory_name\",\"style\",\"ABV\"],\"rows\":[{\"id\":\"l1\",\"values\":[\"\xff\xfe ale\",\"\xc3\",\"a\xe4\xb8\",\"5\"]}]}," +
		"\"right\":{\"schema\":[\"beer_name\",\"brew_factory_name\",\"style\",\"ABV\"],\"rows\":[{\"id\":\"r1\",\"values\":[\"\xff\xfe ale\",\"\xc3\",\"x\",\"5\"]}]}}"))
	f.Add([]byte(`{"left":{"schema":["beer_name","brew_factory_name","style","ABV"],"rows":[{"id":"l1","values":["a","b"]}]},` +
		`"right":{"schema":["beer_name","brew_factory_name","style","ABV"],"rows":[{"id":"r1","values":["a","b","c","d","e"]}]}}`))
	f.Add([]byte(`{"left":{"schema":[],"rows":null},"right":{"schema":null}}`))
	f.Add([]byte(""))
	f.Add([]byte(" \n\t"))
	f.Add([]byte("{not json"))
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, h, "/v1/match", body)
	})
}

// FuzzScoreRequest posts arbitrary bytes to /v1/score.
func FuzzScoreRequest(f *testing.F) {
	art, X := beerArtifact(f)
	vecs := func(rows ...[]float64) []byte {
		raw, err := json.Marshal(scoreRequest{Vectors: rows})
		if err != nil {
			panic(err)
		}
		return raw
	}
	f.Add(vecs(X[0], X[1]))
	f.Add(vecs(make([]float64, art.Dim), make([]float64, art.Dim)))
	f.Add(vecs(X[0], X[1][:art.Dim-1]))
	f.Add(vecs(append(append([]float64{}, X[0]...), 1)))
	f.Add(vecs(overflowVector(art.Dim)))
	f.Add([]byte(`{"vectors":[]}`))
	f.Add([]byte(`{"vectors":[[]]}`))
	f.Add([]byte(`{"vectors":[["\ud800"]]}`))
	f.Add([]byte(`{"vectors":[[1e400]]}`))
	f.Add([]byte(`{"vectors":null,"vectors":[[1]]}`))
	f.Add([]byte(""))
	f.Add([]byte(" \n\t"))
	f.Add([]byte("\xff\xfe"))
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, h, "/v1/score", body)
	})
}
