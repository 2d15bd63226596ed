package objstore

import "strings"

// Mount is the CephFS facade: a POSIX-ish path view over one bucket, shared
// by every pod in a namespace ("the attached CephFS directory that all nodes
// in the namespace can see"). Paths use forward slashes; directories are
// implicit, as in object stores.
type Mount struct {
	store  *Store
	bucket string
}

// MountBucket returns a filesystem view of the bucket.
func (s *Store) MountBucket(bucket string) *Mount {
	return &Mount{store: s, bucket: bucket}
}

func cleanPath(p string) string { return strings.TrimPrefix(p, "/") }

// WriteFile stores real bytes at path.
func (m *Mount) WriteFile(path string, data []byte) error {
	_, err := m.store.Put(m.bucket, cleanPath(path), float64(len(data)), data)
	return err
}

// ReadFile returns the bytes at path, or ErrNotFound. Size-only files return
// a nil slice with no error.
func (m *Mount) ReadFile(path string) ([]byte, error) {
	obj, err := m.store.Get(m.bucket, cleanPath(path))
	if err != nil {
		return nil, err
	}
	return obj.Data, nil
}

// ReplicaPlacement resolves the replica set currently holding the file at
// path (see Store.ReplicaPlacement).
func (m *Mount) ReplicaPlacement(path string) []Replica {
	return m.store.ReplicaPlacement(m.bucket, cleanPath(path))
}

// FailOSD and RecoverOSD forward the storage fault model to the mount's
// store, so a component holding only the mount (the dataset manager) can
// drive OSD loss without a second reference to the store.
func (m *Mount) FailOSD(id string) (float64, error) { return m.store.FailOSD(id) }

// RecoverOSD forwards to Store.RecoverOSD.
func (m *Mount) RecoverOSD(id string) error { return m.store.RecoverOSD(id) }

// Remove deletes the file at path.
func (m *Mount) Remove(path string) error {
	return m.store.Delete(m.bucket, cleanPath(path))
}
