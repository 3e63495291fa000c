// Package transport (import path "wire" in testdata) exercises the
// transport-package JSON check: any json.Marshal/Unmarshal here must
// either be flagged or carry a nolint naming itself a JSON-body seam.
package transport

import "encoding/json"

// Frame is a stand-in wire frame.
type Frame struct {
	Op   string `json:"op"`
	Body []byte `json:"body"`
}

// encodeHot is a hot-path encode that reached for JSON: flagged.
func encodeHot(f Frame) ([]byte, error) {
	return json.Marshal(f) // want `encoding/json.Marshal in package transport`
}

// decodeHot is the matching decode: flagged.
func decodeHot(b []byte) (Frame, error) {
	var f Frame
	err := json.Unmarshal(b, &f) // want `encoding/json.Unmarshal in package transport`
	return f, err
}

// encodeJSONBody is a declared JSON-body seam: suppressed.
func encodeJSONBody(f Frame) ([]byte, error) {
	//gridmon:nolint wirecode JSON-bodied ops: the body is JSON by definition
	return json.Marshal(f)
}
