// Package filemgr implements HILTI's file type and the serialized output
// path behind it. The paper's runtime routes functionality requiring
// serial execution — file output from multiple threads in particular —
// through a command queue consumed by a single dedicated manager thread
// (§5 "Runtime Library"). Mgr is that manager: all writes from any
// goroutine are funneled through one writer goroutine, so output lines are
// never interleaved mid-record.
package filemgr

import (
	"bufio"
	"fmt"
	"os"
	"sync"
)

// Mgr is the file-output manager.
type Mgr struct {
	cmds chan command
	wg   sync.WaitGroup

	mu    sync.Mutex
	files map[string]*File
}

type command struct {
	file *File
	data []byte
	sync chan struct{} // non-nil: flush marker
}

// File is a handle to a managed output file.
type File struct {
	mgr *Mgr
	w   *bufio.Writer
	f   *os.File
}

// TypeName implements the runtime Object interface.
func (f *File) TypeName() string { return "file" }

// NewMgr starts a manager with its writer goroutine.
func NewMgr() *Mgr {
	m := &Mgr{cmds: make(chan command, 1024), files: map[string]*File{}}
	m.wg.Add(1)
	go m.loop()
	return m
}

func (m *Mgr) loop() {
	defer m.wg.Done()
	for c := range m.cmds {
		if c.sync != nil {
			if c.file != nil && c.file.w != nil {
				c.file.w.Flush()
			}
			close(c.sync)
			continue
		}
		if c.file.w != nil {
			c.file.w.Write(c.data)
		}
	}
}

// Open opens (or returns the already-open handle for) path, truncating it
// on first open. Opening the same path twice shares the handle, as HILTI's
// file.open does for concurrent writers.
func (m *Mgr) Open(path string) (*File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[path]; ok {
		return f, nil
	}
	osf, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("filemgr: %w", err)
	}
	f := &File{mgr: m, f: osf, w: bufio.NewWriterSize(osf, 64<<10)}
	m.files[path] = f
	return f, nil
}

// WriteString enqueues data for the writer goroutine (HILTI's file.write).
func (f *File) WriteString(s string) { f.mgr.cmds <- command{file: f, data: []byte(s)} }

// Write enqueues raw data for the writer goroutine.
func (f *File) Write(b []byte) {
	cp := make([]byte, len(b))
	copy(cp, b)
	f.mgr.cmds <- command{file: f, data: cp}
}

// Sync blocks until all previously enqueued writes for this file reached
// the OS.
func (f *File) Sync() {
	done := make(chan struct{})
	f.mgr.cmds <- command{file: f, sync: done}
	<-done
}

// Close shuts down the manager, flushing and closing every file. The
// manager is unusable afterwards.
func (m *Mgr) Close() error {
	close(m.cmds)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, f := range m.files {
		if f.w != nil {
			if err := f.w.Flush(); err != nil && first == nil {
				first = err
			}
		}
		if f.f != nil {
			if err := f.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	m.files = map[string]*File{}
	return first
}
