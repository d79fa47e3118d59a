package experiments

import (
	"context"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
)

// TestLoopbackPoolClosesConnsOnFailedDial dials a pool whose last node
// is down: building the Central must fail, and the connections already
// opened to the earlier nodes must be closed rather than leaked, so
// their NodeServers drop back to zero sessions.
func TestLoopbackPoolClosesConnsOnFailedDial(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := startLoopbackPool(m, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.stop()
	pool.nodes[2].crash()

	if c, err := pool.central(m, time.Second); err == nil {
		c.Shutdown()
		t.Fatal("central over a pool with a dead node must fail to dial")
	}
	for _, n := range pool.nodes[:2] {
		_, drained := waitFor(context.Background(), 5*time.Second, func() (float64, bool) {
			return 0, n.ns.ActiveSessions() == 0
		})
		if !drained {
			t.Errorf("node %d still holds %d sessions after the failed dial", n.idx, n.ns.ActiveSessions())
		}
	}
}
