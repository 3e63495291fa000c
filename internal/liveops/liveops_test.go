package liveops

import (
	"context"
	"strings"
	"testing"

	"repro/internal/transport"
)

// liveClient calls the param-based ops the way every client does: a
// JSON-bodied OpRequest in, an OpResponse payload out.
type liveClient struct{ *transport.MuxClient }

func (c liveClient) Call(op string, params map[string]string) (string, error) {
	var resp OpResponse
	err := c.CallJSON(context.Background(), op, OpRequest{Params: params}, &resp)
	return resp.Payload, err
}

// serveLive serves dep on a real TCP socket and returns a connected
// client.
func serveLive(t *testing.T, dep Deployment) liveClient {
	t.Helper()
	srv := transport.NewServer()
	Register(srv, dep)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client, err := transport.DialV3(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return liveClient{client}
}

// startLive boots the full live deployment.
func startLive(t *testing.T) liveClient {
	t.Helper()
	dep, _, err := BuildDefault([]string{"lucky3", "lucky4", "lucky7"}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return serveLive(t, dep)
}

func TestLiveMDSQueryOverTCP(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("mds.query", map[string]string{
		"filter": "(objectclass=MdsCpu)",
		"attrs":  "Mds-Cpu-Free-1minX100",
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "dn: ") != 3 {
		t.Fatalf("mds.query = %q", out)
	}
	if !strings.Contains(out, "Mds-Cpu-Free-1minX100: ") {
		t.Fatalf("projection missing: %q", out)
	}
}

func TestLiveMDSHosts(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("mds.hosts", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"lucky3", "lucky4", "lucky7"} {
		if !strings.Contains(out, h) {
			t.Fatalf("hosts = %q missing %s", out, h)
		}
	}
}

func TestLiveRGMAQueryOverTCP(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("rgma.query", map[string]string{
		"sql": "SELECT host, value FROM siteinfo WHERE value >= 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 3 hosts x 3 producers x 5 metrics.
	if len(lines) != 1+45 {
		t.Fatalf("rgma.query returned %d lines", len(lines))
	}
	if lines[0] != "host,value" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestLiveRGMATables(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("rgma.tables", nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "siteinfo" {
		t.Fatalf("tables = %q", out)
	}
}

func TestLiveHawkeyeQueryOverTCP(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("hawkeye.query", map[string]string{
		"constraint": "TARGET.CpuLoad >= 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Name = ") != 3 {
		t.Fatalf("hawkeye.query = %q", out)
	}
}

func TestLiveHawkeyePool(t *testing.T) {
	c := startLive(t)
	out, err := c.Call("hawkeye.pool", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("pool = %q", out)
	}
}

func TestLiveOpsComplete(t *testing.T) {
	dep, _, err := BuildDefault([]string{"h"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	Register(srv, dep)
	want := []string{"mds.query", "mds.hosts", "rgma.query", "rgma.tables", "hawkeye.query", "hawkeye.pool"}
	got := map[string]bool{}
	for _, op := range srv.Ops() {
		got[op] = true
	}
	for _, op := range want {
		if !got[op] {
			t.Errorf("missing op %q", op)
		}
	}
}

// TestLiveErrorCodes: parse failures, missing params, refused statements
// and unknown ops carry structured codes.
func TestLiveErrorCodes(t *testing.T) {
	c := startLive(t)
	cases := []struct {
		op     string
		params map[string]string
		code   transport.Code
	}{
		{"mds.query", map[string]string{"filter": "(((broken"}, transport.CodeParse},
		{"hawkeye.query", map[string]string{"constraint": "1 +"}, transport.CodeParse},
		{"rgma.query", nil, transport.CodeBadRequest},
		{"rgma.query", map[string]string{"sql": "DELETE FROM siteinfo"}, transport.CodeExec},
		{"no.such.op", nil, transport.CodeUnknownOp},
	}
	for _, tc := range cases {
		_, err := c.Call(tc.op, tc.params)
		if transport.ErrorCode(err) != tc.code {
			t.Errorf("%s %v: err = %v, want code %s", tc.op, tc.params, err, tc.code)
		}
	}
}

// TestPartialDeploymentUnavailable: ops for systems missing from the
// Deployment fail with the unavailable code instead of panicking.
func TestPartialDeploymentUnavailable(t *testing.T) {
	dep, _, err := BuildDefault([]string{"h"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Manager = nil // no Hawkeye here
	c := serveLive(t, dep)
	for _, op := range []string{"hawkeye.query", "hawkeye.pool"} {
		_, err := c.Call(op, nil)
		if transport.ErrorCode(err) != transport.CodeUnavailable {
			t.Errorf("%s: err = %v, want unavailable", op, err)
		}
	}
}
