package cluster

import (
	"fmt"
	"testing"

	"pvfscache/internal/pvfs"
	"pvfscache/internal/storage/mem"
)

// TestMemStoreHoldsOnlyWrittenBytes seeds scan_miss's layout — 4 iods,
// 64 KB strips, three files written in 64 KB requests through the cache
// and flushed — and checks that the iods' mem stores together hold no
// more than the user bytes (plus 1 %). Each iod holds every fourth strip;
// a store laid out contiguously at file offsets held the other three
// quarters as zeros too.
func TestMemStoreHoldsOnlyWrittenBytes(t *testing.T) {
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const (
		files    = 3
		fileSize = 8 << 20
		req      = 64 << 10
	)
	buf := make([]byte, req)
	for i := range buf {
		buf[i] = byte(i | 1)
	}
	for f := 0; f < files; f++ {
		file, err := p.Create(fmt.Sprintf("scan/%d.dat", f), pvfs.StripeSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < fileSize; off += req {
			if _, err := file.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var resident int64
	for i, d := range c.IODs {
		st := d.Store().(*mem.Backend).Store()
		t.Logf("iod %d: %d bytes resident", i, st.ResidentBytes())
		resident += st.ResidentBytes()
	}
	user := int64(files * fileSize)
	if resident > user+user/100 {
		t.Fatalf("iods hold %d bytes for %d user bytes (%.2fx), want <= 1.01x",
			resident, user, float64(resident)/float64(user))
	}
	if resident < user {
		t.Fatalf("iods hold %d bytes for %d user bytes: some flushed bytes are missing", resident, user)
	}
}
