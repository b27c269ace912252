package cmif_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/cmif"
)

// startNewsServer serves the built-in evening-news corpus and returns
// its address.
func startNewsServer(t *testing.T, opts ...cmif.ServeOption) string {
	t.Helper()
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts,
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	srv := cmif.NewServer(opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestClientPool drives concurrent traffic through a pooled client: the
// operations spread over the pool's multiplexed connections, and the
// shared cache keeps serving across them.
func TestClientPool(t *testing.T) {
	addr := startNewsServer(t)
	cache := cmif.NewBlockCache(64)
	c, err := cmif.Dial(context.Background(), addr,
		cmif.WithPoolSize(3), cmif.WithSharedCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := c.PoolSize(); got != 3 {
		t.Errorf("PoolSize = %d, want 3", got)
	}
	if got := c.ProtocolVersion(); got != 4 {
		t.Errorf("ProtocolVersion = %d, want 4", got)
	}

	doc, err := c.Document(context.Background(), "news")
	if err != nil {
		t.Fatal(err)
	}
	names := doc.ExternalFiles()
	if len(names) == 0 {
		t.Fatal("news document references no external files")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := c.Block(context.Background(), names[(i+j)%len(names)]); err != nil {
					errs <- fmt.Errorf("worker %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if c.BytesSent() <= 0 || c.BytesReceived() <= 0 {
		t.Errorf("traffic counters: sent=%d received=%d", c.BytesSent(), c.BytesReceived())
	}
	stats, ok := c.CacheStats()
	if !ok || stats.Hits == 0 {
		t.Errorf("CacheStats = %+v, %v; want hits through the shared cache", stats, ok)
	}
}

// TestProtocolVersionOptions pins the facade's version controls: a
// client capped at v2 and a server capped at v2 both end up on the
// oldest served protocol, and everything still works.
func TestProtocolVersionOptions(t *testing.T) {
	t.Run("client-capped", func(t *testing.T) {
		addr := startNewsServer(t)
		c, err := cmif.Dial(context.Background(), addr, cmif.WithProtocolVersion(2))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.ProtocolVersion(); got != 2 {
			t.Errorf("ProtocolVersion = %d, want 2", got)
		}
		if _, err := c.Document(context.Background(), "news"); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("server-capped", func(t *testing.T) {
		addr := startNewsServer(t, cmif.WithMaxProtocolVersion(2), cmif.WithMaxInFlight(4))
		c, err := cmif.Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.ProtocolVersion(); got != 2 {
			t.Errorf("ProtocolVersion = %d, want 2 (server capped)", got)
		}
		names, err := c.List(context.Background())
		if err != nil || len(names) != 1 {
			t.Fatalf("List = %v, %v", names, err)
		}
	})
}

// TestProtocolVersionCapOutOfRange pins that a version cap outside 2..4
// fails loudly on both sides instead of silently becoming the default:
// Listen and Serve refuse the server, Dial refuses the client.
func TestProtocolVersionCapOutOfRange(t *testing.T) {
	addr := startNewsServer(t)
	for _, v := range []int{0, 1, 5, 7} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			srv := cmif.NewServer(cmif.WithMaxProtocolVersion(v))
			if bound, err := srv.Listen("127.0.0.1:0"); err == nil {
				srv.Close()
				t.Fatalf("Listen accepted cap %d (bound %s)", v, bound)
			}
			srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := cmif.Serve(ctx, "127.0.0.1:0", nil, cmif.WithMaxProtocolVersion(v)); err == nil {
				t.Fatalf("Serve accepted cap %d", v)
			}
			if c, err := cmif.Dial(context.Background(), addr, cmif.WithProtocolVersion(v)); err == nil {
				c.Close()
				t.Fatalf("Dial accepted cap %d", v)
			}
		})
	}
}

// TestPooledCancellationSurvives cancels a call on a pooled v2 client
// and verifies the pool keeps serving — the facade-level face of the
// connection-poisoning fix.
func TestPooledCancellationSurvives(t *testing.T) {
	addr := startNewsServer(t)
	c, err := cmif.Dial(context.Background(), addr, cmif.WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Document(ctx, "news"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch = %v, want context.Canceled", err)
	}
	// Every pooled connection must still work.
	for i := 0; i < 4; i++ {
		if _, err := c.Document(context.Background(), "news"); err != nil {
			t.Fatalf("fetch %d after cancellation: %v", i, err)
		}
	}
}
