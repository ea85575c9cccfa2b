package server

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/topology"
)

// This file holds the append encoders of the four v1 answers. Each renders
// its document byte for byte as writeJSON (a json.Encoder with two-space
// indent and HTML escaping) would, without reflection or intermediate
// values, into the pooled scratch buffer. TestRouteEncodeParity and
// TestV1BodyParity pin the equivalence, and the CI daemon smoke greps the
// rendered `"verified": true` and `"status": "done"` separators, so the
// `": "` spelling here is load-bearing.

// appendPermLabel renders p exactly as perm.String: concatenated digits for
// k <= 9, space-separated symbols beyond.
func appendPermLabel(b []byte, p perm.Perm) []byte {
	if len(p) <= 9 {
		for _, v := range p {
			b = append(b, byte('0'+v))
		}
		return b
	}
	for i, v := range p {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendJSONFloat reproduces encoding/json's float64 rendering: 'f' format
// in the human range, 'e' with a trimmed exponent outside it.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a quoted JSON string. Printable ASCII other
// than '"', '\\', '<', '>' and '&' needs no escape, and every name, label
// and minted ID scgd emits is made of it, so those are copied. Anything
// else (a client's request ID with '<', a job's error text) is rare and
// goes through json.Marshal, which keeps encoding/json's escaping rules in
// one place at the price of allocations. It marshals a copy: boxing s
// itself would make s escape, and with it every response struct whose
// strings reach here.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(strings.Clone(s))
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendRouteResponse renders a RouteResponse.
func appendRouteResponse(b []byte, nw *topology.Network, src, dst perm.Perm, moves []gen.Generator, exact int, hasExact bool, stretch float64, hasStretch bool) []byte {
	b = append(b, "{\n  \"network\": \""...)
	b = append(b, nw.Name()...)
	b = append(b, "\",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(nw.K()), 10)
	b = append(b, ",\n  \"nodes\": "...)
	b = strconv.AppendInt(b, nw.Nodes(), 10)
	b = append(b, ",\n  \"src\": \""...)
	b = appendPermLabel(b, src)
	b = append(b, "\",\n  \"dst\": \""...)
	b = appendPermLabel(b, dst)
	b = append(b, "\",\n  \"moves\": ["...)
	for i, m := range moves {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    \""...)
		b = append(b, nw.MoveName(m)...)
		b = append(b, '"')
	}
	if len(moves) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"hops\": "...)
	b = strconv.AppendInt(b, int64(len(moves)), 10)
	b = append(b, ",\n  \"diameter_bound\": "...)
	b = strconv.AppendInt(b, int64(nw.DiameterUpperBound()), 10)
	b = append(b, ",\n  \"verified\": true"...)
	if hasExact {
		b = append(b, ",\n  \"exact_distance\": "...)
		b = strconv.AppendInt(b, int64(exact), 10)
	}
	if hasStretch {
		b = append(b, ",\n  \"stretch\": "...)
		b = appendJSONFloat(b, stretch)
	}
	b = append(b, "\n}\n"...)
	return b
}

// appendNeighborsResponse renders the NeighborsResponse of node, computing
// each neighbor into nb (k symbols, not aliasing node) instead of
// materializing the []Neighbor the struct form would need.
func appendNeighborsResponse(b []byte, nw *topology.Network, node, nb perm.Perm) []byte {
	g := nw.Graph()
	set := g.GeneratorSet()
	b = append(b, "{\n  \"network\": "...)
	b = appendJSONString(b, nw.Name())
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(nw.K()), 10)
	b = append(b, ",\n  \"node\": \""...)
	b = appendPermLabel(b, node)
	b = append(b, "\",\n  \"degree\": "...)
	b = strconv.AppendInt(b, int64(nw.Degree()), 10)
	b = append(b, ",\n  \"neighbors\": ["...)
	for i := 0; i < set.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		g.NeighborInto(node, i, nb)
		b = append(b, "\n    {\n      \"move\": "...)
		b = appendJSONString(b, nw.MoveName(set.At(i)))
		b = append(b, ",\n      \"node\": \""...)
		b = appendPermLabel(b, nb)
		b = append(b, "\"\n    }"...)
	}
	if set.Len() > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	return b
}

// appendMetricsResponse renders m.
func appendMetricsResponse(b []byte, m *MetricsResponse) []byte {
	b = append(b, "{\n  \"network\": "...)
	b = appendJSONString(b, m.Network)
	b = append(b, ",\n  \"family\": "...)
	b = appendJSONString(b, m.Family)
	b = append(b, ",\n  \"l\": "...)
	b = strconv.AppendInt(b, int64(m.L), 10)
	b = append(b, ",\n  \"n\": "...)
	b = strconv.AppendInt(b, int64(m.N), 10)
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(m.K), 10)
	b = append(b, ",\n  \"nodes\": "...)
	b = strconv.AppendInt(b, m.Nodes, 10)
	b = append(b, ",\n  \"degree\": "...)
	b = strconv.AppendInt(b, int64(m.Degree), 10)
	b = append(b, ",\n  \"intercluster_degree\": "...)
	b = strconv.AppendInt(b, int64(m.InterclusterDegree), 10)
	b = append(b, ",\n  \"undirected\": "...)
	b = strconv.AppendBool(b, m.Undirected)
	b = append(b, ",\n  \"diameter_bound\": "...)
	b = strconv.AppendInt(b, int64(m.DiameterBound), 10)
	if m.PaperBound != nil {
		b = append(b, ",\n  \"paper_bound\": "...)
		b = strconv.AppendInt(b, int64(*m.PaperBound), 10)
	}
	b = append(b, ",\n  \"d_l\": "...)
	b = appendJSONFloat(b, m.DL)
	b = append(b, ",\n  \"alpha_bound\": "...)
	b = appendJSONFloat(b, m.AlphaBound)
	b = append(b, ",\n  \"cost\": "...)
	b = strconv.AppendInt(b, int64(m.Cost), 10)
	if m.ExactDiameter != nil {
		b = append(b, ",\n  \"exact_diameter\": "...)
		b = strconv.AppendInt(b, int64(*m.ExactDiameter), 10)
	}
	if m.ExactAvgDistance != nil {
		b = append(b, ",\n  \"exact_avg_distance\": "...)
		b = appendJSONFloat(b, *m.ExactAvgDistance)
	}
	if m.AlphaExact != nil {
		b = append(b, ",\n  \"alpha_exact\": "...)
		b = appendJSONFloat(b, *m.AlphaExact)
	}
	b = append(b, "\n}\n"...)
	return b
}

// appendProfileResponse renders the ProfileResponse of a job snapshot;
// cached marks a submit answered from a resident profile. The histogram is
// read in place: a job's result is immutable once set.
func appendProfileResponse(b []byte, job *Job, cached bool) []byte {
	b = append(b, "{\n  \"job_id\": "...)
	b = appendJSONString(b, job.ID)
	if job.ReqID != "" {
		b = append(b, ",\n  \"request_id\": "...)
		b = appendJSONString(b, job.ReqID)
	}
	b = append(b, ",\n  \"network\": \""...)
	b = job.Key.appendName(b)
	b = append(b, "\",\n  \"status\": "...)
	b = appendJSONString(b, string(job.Status))
	if cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	if job.Err != "" {
		b = append(b, ",\n  \"error\": "...)
		b = appendJSONString(b, job.Err)
	}
	if res := job.Result; res != nil {
		b = append(b, ",\n  \"result\": {\n    \"diameter\": "...)
		b = strconv.AppendInt(b, int64(res.Eccentricity), 10)
		b = append(b, ",\n    \"avg_distance\": "...)
		b = appendJSONFloat(b, res.Mean)
		b = append(b, ",\n    \"nodes\": "...)
		b = strconv.AppendInt(b, res.Reachable, 10)
		b = append(b, ",\n    \"histogram\": "...)
		if len(res.Histogram) == 0 {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, v := range res.Histogram {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      "...)
				b = strconv.AppendInt(b, v, 10)
			}
			b = append(b, "\n    ]"...)
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, "\n}\n"...)
	return b
}
