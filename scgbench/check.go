package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/server"
)

// jsonInt finds "key" in a JSON object and parses the integer after its
// colon. It is the allocation-free half of the route check; sampled
// answers are also fully decoded.
func jsonInt(body []byte, key string) (int, bool) {
	v, ok := jsonValue(body, key)
	if !ok {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range v {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

// jsonValue returns the bytes after "key": with surrounding whitespace
// skipped.
func jsonValue(body []byte, key string) ([]byte, bool) {
	for off := 0; ; {
		i := bytes.Index(body[off:], []byte(`"`+key+`"`))
		if i < 0 {
			return nil, false
		}
		rest := bytes.TrimLeft(body[off+i+len(key)+2:], " \t\r\n")
		if len(rest) > 0 && rest[0] == ':' {
			return bytes.TrimLeft(rest[1:], " \t\r\n"), true
		}
		off += i + 1
	}
}

// checkRouteBody checks one 200 answer of /v1/route: the server verified
// the walk, hops stay within the routing bound, and a present exact
// distance is at most the hops, with stretch present whenever it is
// positive.
func checkRouteBody(body []byte) (hops, exact int, hasExact bool, err error) {
	v, ok := jsonValue(body, "verified")
	if !ok || !bytes.HasPrefix(v, []byte("true")) {
		return 0, 0, false, errors.New(`answer is not "verified": true`)
	}
	hops, ok = jsonInt(body, "hops")
	if !ok {
		return 0, 0, false, errors.New("answer has no hops")
	}
	bound, ok := jsonInt(body, "diameter_bound")
	if !ok || hops > bound {
		return 0, 0, false, fmt.Errorf("hops %d exceed diameter_bound %d", hops, bound)
	}
	exact, hasExact = jsonInt(body, "exact_distance")
	if hasExact {
		if hops < exact {
			return 0, 0, false, fmt.Errorf("hops %d below exact_distance %d", hops, exact)
		}
		if _, ok := jsonValue(body, "stretch"); exact > 0 && !ok {
			return 0, 0, false, errors.New("exact_distance without stretch")
		}
	}
	return hops, exact, hasExact, nil
}

// decodeRoute fully decodes a sampled route answer and cross-checks it
// against the fast scan.
func decodeRoute(body []byte, hops int) error {
	var r server.RouteResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if !r.Verified || r.Hops != hops || len(r.Moves) != hops {
		return fmt.Errorf("decoded answer verified=%v hops=%d moves=%d, scan saw hops %d", r.Verified, r.Hops, len(r.Moves), hops)
	}
	return nil
}
