// Package leakcheck is leakcheck's golden input: every acquired OS
// resource must be closed on all paths (or handed off), and every
// goroutine in a library package must be visibly bounded. Each flagged
// function is paired with a clean variant of the same shape.
package leakcheck

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
)

var errEmpty = errors.New("empty")

// readDeferred is the canonical clean shape: open, check the error,
// defer the Close.
func readDeferred(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// leakOnError closes on the happy path but loses the handle when the
// marker check fails.
func leakOnError(path, marker string) error {
	f, err := os.Open(path) // want `the os.Open result is not closed on the return path`
	if err != nil {
		return err
	}
	if marker == "" {
		return errEmpty
	}
	f.Close()
	return nil
}

// tempLeak loses the temp file when the write fails: the error path
// removes it but never closes it.
func tempLeak(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*") // want `the os.CreateTemp result is not closed on the return path`
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return tmp.Close()
}

// closeSplit closes explicitly on both paths — clean without a defer.
func closeSplit(path, marker string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if marker == "" {
		f.Close()
		return errEmpty
	}
	f.Close()
	return nil
}

// leakToEnd falls off the end of the function with the file open.
func leakToEnd(path string) {
	f, err := os.Create(path) // want `the os.Create result is not closed on the fall-through path`
	if err != nil {
		return
	}
	f.Write(nil)
}

// openHandle transfers ownership to the caller: returning the
// resource is not a leak.
func openHandle(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// handOff transfers ownership to a callee.
func handOff(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return consume(f)
}

func consume(f *os.File) error {
	defer f.Close()
	return nil
}

// discard drops the handle where it stands; nothing can close it.
func discard(path string) {
	os.Create(path) // want `result of os.Create is discarded`
}

// discardBlank assigns the handle to the blank identifier.
func discardBlank(path string) {
	_, _ = os.Create(path) // want `result of os.Create is assigned to _`
}

// fetchLeak forgets the response body on the status-check path.
func fetchLeak(c *http.Client, url string) error {
	resp, err := c.Get(url) // want `the http.Client.Get result is not closed on the return path`
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errEmpty
	}
	resp.Body.Close()
	return nil
}

// fetchDeferred defers the body close right after the error check.
func fetchDeferred(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// counter is shared state for the goroutine fixtures.
type counter struct {
	mu sync.Mutex
	n  int
}

// spawnUnbounded launches a goroutine nothing bounds or joins.
func spawnUnbounded(c *counter) {
	go func() { // want `spawnUnbounded starts a goroutine that is neither ctx-bounded nor joined`
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}

// spawnJoined signals a WaitGroup the spawner waits on.
func spawnJoined(c *counter, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}

// spawnBounded consumes a context: its lifetime is the caller's.
func spawnBounded(ctx context.Context, c *counter) {
	go func() {
		<-ctx.Done()
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}

// spawnChannel sends on a channel the spawner receives from — the
// join-channel idiom.
func spawnChannel(c *counter) {
	done := make(chan struct{})
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		done <- struct{}{}
	}()
	<-done
}

// decodeLeak lends the file to a reader and never closes it: a callee
// that takes an io.Reader reads the file, it does not own it.
func decodeLeak(path string) ([]byte, error) {
	f, err := os.Open(path) // want `the os.Open result is not closed on the return path`
	if err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// decodeDeferred is decodeLeak with its deferred Close.
func decodeDeferred(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func encode(w io.Writer, data []byte) error {
	_, err := w.Write(data)
	return err
}

// encodeLeak loses the temp file when the write through an io.Writer
// fails: the writer never owned it.
func encodeLeak(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*") // want `the os.CreateTemp result is not closed on the return path`
	if err != nil {
		return err
	}
	if err := encode(tmp, data); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return tmp.Close()
}

// encodeClosed closes the temp file on both paths.
func encodeClosed(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if err := encode(tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	return tmp.Close()
}

// handleLeak lends the response to a callback and never closes its
// body: a function value borrows what it is given.
func handleLeak(c *http.Client, req *http.Request, handle func(*http.Response) error) error {
	resp, err := c.Do(req) // want `the http.Client.Do result is not closed on the return path`
	if err != nil {
		return err
	}
	if err := handle(resp); err != nil {
		return err
	}
	return nil
}

// handleDeferred is handleLeak with its deferred body close.
func handleDeferred(c *http.Client, req *http.Request, handle func(*http.Response) error) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return handle(resp)
}
