// Package dataset is the content-addressed data plane of the chased
// service: volumes and masks live once in the community fabric (the
// simulated Rook/Ceph objstore) and every layer above — the Job API, the
// service handlers, the jobs chained by ref, the CLI — moves 64-hex SHA-256
// *references* instead of inline float payloads. This is the paper's core
// bet made concrete: workflows ship refs to data held near the compute
// ("data is moved to where it is needed"), so a 128^3 segment job submits a
// ~70-byte ref where the inline path shipped ~8 MB of JSON text.
//
// The codec is deliberately compact and self-describing:
//
//	magic   "CDS1" (4 bytes)
//	kind    uint8  (1 = float32 volume, 2 = 1-bit packed binary mask)
//	pad     3 bytes (zero)
//	d, h, w uint32 little-endian
//	payload volume: d*h*w float32 LE; mask: ceil(d*h*w/8) bytes, LSB-first
//
// A dataset's ID is the lowercase hex SHA-256 of its full encoding, so IDs
// are self-verifying: the store hashes an upload once, and that hash both
// checks the id it was put at (PutAt) and addresses it, so a corrupt or
// mislabeled blob can never resolve.
//
// Nothing is materialised twice. The store keeps the encoding it was handed,
// and a resolved Blob is a view of those same bytes: a volume's Data is the
// payload reinterpreted as []float32 (the payload is little-endian float32,
// which is what a little-endian host holds in memory), a mask's Bits and a
// checkpoint's Raw are the payload itself. The only copy is the fallback a
// volume takes when the host is big-endian or the payload does not start on
// a 4-byte boundary — chosen by the data, never by a setting. The price of
// the view is one rule: nobody writes through a Blob, because the bytes
// behind it are the content address (see Blob).
package dataset

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"chaseci/internal/objstore"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Kind discriminates the payload encodings.
type Kind uint8

// The payload kinds.
const (
	// KindVolume is a dense row-major (d, h, w) float32 field.
	KindVolume Kind = 1
	// KindMask is a binary (d, h, w) field packed 1 bit per voxel —
	// ~32x smaller than the float32 encoding for segmentation masks.
	KindMask Kind = 2
	// KindCheckpoint is an opaque training-checkpoint byte string (the FFN
	// FFNCKPT format). d carries the payload byte length; h and w are 1.
	KindCheckpoint Kind = 3
)

// String names the kind for listings.
func (k Kind) String() string {
	switch k {
	case KindVolume:
		return "volume"
	case KindMask:
		return "mask"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Codec errors.
var (
	ErrBadEncoding = errors.New("dataset: bad encoding")
	ErrNotFound    = errors.New("dataset: not found")
	ErrBadID       = errors.New("dataset: malformed id")
	ErrTooLarge    = errors.New("dataset: exceeds size limit")
)

var magic = [4]byte{'C', 'D', 'S', '1'}

// HeaderSize is the fixed codec prefix before the payload.
const HeaderSize = 20

// MaxVoxels bounds every volume, stored or spelled out in a job request
// (64M voxels = 256 MB f32): the job schema holds inline and synthetic
// volumes to it through Voxels, so a ref can never resolve to a volume the
// service would have refused inline.
const MaxVoxels = 64 << 20

// MaxEncodedBytes is the largest valid dataset encoding.
const MaxEncodedBytes = HeaderSize + MaxVoxels*4

// Voxels returns d*h*w when positive and within MaxVoxels, division-checked
// so the product cannot overflow.
func Voxels(d, h, w int) (int, bool) {
	if d <= 0 || h <= 0 || w <= 0 {
		return 0, false
	}
	if d > MaxVoxels/h {
		return 0, false
	}
	dh := d * h
	if dh > MaxVoxels/w {
		return 0, false
	}
	return dh * w, true
}

// packBitsInto writes a float mask as the codec's mask payload: data as
// bits, LSB-first, into out, which must hold (len(data)+7)/8 bytes; every byte is written, so out need not be zero. It
// reads non-zero from the bit pattern, sign cleared, and branches on no
// value: NaN sets a bit, -0 does not, exactly as v != 0.
func packBitsInto(out []byte, data []float32) {
	full := len(data) / 8
	for i := range full {
		v := data[8*i : 8*i+8 : 8*i+8]
		out[i] = nonZero(v[0]) | nonZero(v[1])<<1 | nonZero(v[2])<<2 | nonZero(v[3])<<3 |
			nonZero(v[4])<<4 | nonZero(v[5])<<5 | nonZero(v[6])<<6 | nonZero(v[7])<<7
	}
	if tail := data[8*full:]; len(tail) > 0 {
		var b byte
		for j, v := range tail {
			b |= nonZero(v) << j
		}
		out[full] = b
	}
}

// nonZero is 1 when v != 0 and 0 otherwise, computed without a branch: the
// magnitude bits m are non-zero exactly then, and so is the top bit of m|-m.
func nonZero(v float32) byte {
	m := math.Float32bits(v) << 1
	return byte((m | -m) >> 31)
}

// UnpackBits expands n LSB-first packed bits into a 0/1 float32 field.
// Stray set bits beyond n are rejected: one logical mask must have exactly
// one encoding (and therefore one content address), like the zero header
// padding the codec also enforces.
func UnpackBits(bits []byte, n int) ([]float32, error) {
	if n < 0 || len(bits) != (n+7)/8 {
		return nil, fmt.Errorf("%w: %d packed bytes cannot hold %d bits", ErrBadEncoding, len(bits), n)
	}
	if rem := n % 8; rem != 0 && bits[len(bits)-1]>>rem != 0 {
		return nil, fmt.Errorf("%w: non-zero padding bits past bit %d", ErrBadEncoding, n)
	}
	out := make([]float32, n)
	for i := range out {
		if bits[i/8]&(1<<(i%8)) != 0 {
			out[i] = 1
		}
	}
	return out, nil
}

// hostLittleEndian reports whether a float32 in memory is already its
// 4-byte little-endian encoding — the condition for viewing instead of
// converting.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatsView reinterprets a non-empty little-endian float32 payload as
// []float32 without copying. It returns nil when that is not a plain
// reinterpretation: a big-endian host, or a payload off the 4-byte boundary
// a float32 load needs.
func floatsView(payload []byte) []float32 {
	p := unsafe.Pointer(unsafe.SliceData(payload))
	if !hostLittleEndian || uintptr(p)%4 != 0 {
		return nil
	}
	return unsafe.Slice((*float32)(p), len(payload)/4)
}

func encodeHeader(kind Kind, d, h, w, payload int) []byte {
	b := make([]byte, HeaderSize, HeaderSize+payload)
	putHeader(b, kind, d, h, w)
	return b
}

// putHeader writes the codec prefix into b[:HeaderSize], which must be zero.
func putHeader(b []byte, kind Kind, d, h, w int) {
	copy(b, magic[:])
	b[4] = byte(kind)
	binary.LittleEndian.PutUint32(b[8:], uint32(d))
	binary.LittleEndian.PutUint32(b[12:], uint32(h))
	binary.LittleEndian.PutUint32(b[16:], uint32(w))
}

// EncodeVolume encodes a dense float32 volume.
func EncodeVolume(d, h, w int, data []float32) ([]byte, error) {
	n, ok := Voxels(d, h, w)
	if !ok || len(data) != n {
		return nil, fmt.Errorf("%w: volume %dx%dx%d with %d values", ErrBadEncoding, d, h, w, len(data))
	}
	b := encodeHeader(KindVolume, d, h, w, 4*n)
	if hostLittleEndian {
		// The floats in memory are the payload: one bulk copy.
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*n)...), nil
	}
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b, nil
}

// EncodeMask encodes a binary volume 1 bit per voxel; non-zero values are
// set bits.
func EncodeMask(d, h, w int, data []float32) ([]byte, error) {
	if err := checkMask(d, h, w, data); err != nil {
		return nil, err
	}
	b := make([]byte, maskEncodedLen(len(data)))
	encodeMaskInto(b, d, h, w, data)
	return b, nil
}

// maskEncodedLen is the length of an n-voxel mask's encoding.
func maskEncodedLen(n int) int { return HeaderSize + (n+7)/8 }

// encodeMaskInto writes EncodeMask(d, h, w, data) into enc, which must hold
// exactly maskEncodedLen(len(data)) bytes and need not be zero.
func encodeMaskInto(enc []byte, d, h, w int, data []float32) {
	clear(enc[:HeaderSize])
	putHeader(enc, KindMask, d, h, w)
	packBitsInto(enc[HeaderSize:], data)
}

// WordBits returns the packed bytes of the first n bits of words: the mask
// payload PutMaskWords stores, and the Job API's inline mask_bits.
func WordBits(words []uint32, n int) []byte {
	out := make([]byte, (n+7)/8)
	putWordBits(out, words)
	return out
}

// putWordBits writes words' bits into dst LSB-first, as many bytes as dst
// holds: word i is bytes 4i to 4i+3, little-endian. Each word is written
// through binary.LittleEndian, never reinterpreted, so the bytes are the
// same on any host.
func putWordBits(dst []byte, words []uint32) {
	full := len(dst) / 4
	for i, w := range words[:full] {
		binary.LittleEndian.PutUint32(dst[4*i:], w)
	}
	for j := range dst[4*full:] {
		dst[4*full+j] = byte(words[full] >> (8 * j))
	}
}

// checkMaskWords refuses words that are not a (d, h, w) mask's bits: dims
// out of range, the wrong word count, or a bit set past the last voxel,
// which would give one logical mask a second encoding. It returns the
// voxel count.
func checkMaskWords(d, h, w int, words []uint32) (int, error) {
	n, ok := Voxels(d, h, w)
	if !ok || len(words) != (n+31)/32 {
		return 0, fmt.Errorf("%w: mask %dx%dx%d in %d words", ErrBadEncoding, d, h, w, len(words))
	}
	if rem := n % 32; rem != 0 && words[len(words)-1]>>rem != 0 {
		return 0, fmt.Errorf("%w: bits set past voxel %d", ErrBadEncoding, n)
	}
	return n, nil
}

// checkMask refuses a mask whose dims are out of range or disagree with its
// value count.
func checkMask(d, h, w int, data []float32) error {
	if n, ok := Voxels(d, h, w); !ok || len(data) != n {
		return fmt.Errorf("%w: mask %dx%dx%d with %d values", ErrBadEncoding, d, h, w, len(data))
	}
	return nil
}

// CheckpointFrame starts the encoding of an opaque checkpoint byte string
// of exactly payloadLen bytes: it returns the CDS1 header with capacity for
// the payload, which the caller appends — so a checkpoint is serialized
// once, straight into the allocation the store keeps. The byte length rides
// in the d dimension, so the header path's size validation applies
// unchanged.
func CheckpointFrame(payloadLen int) ([]byte, error) {
	if _, ok := Voxels(payloadLen, 1, 1); !ok {
		return nil, fmt.Errorf("%w: checkpoint of %d bytes", ErrBadEncoding, payloadLen)
	}
	return encodeHeader(KindCheckpoint, payloadLen, 1, 1, payloadLen), nil
}

// EncodeCheckpoint frames a checkpoint that is already serialized.
func EncodeCheckpoint(payload []byte) ([]byte, error) {
	b, err := CheckpointFrame(len(payload))
	if err != nil {
		return nil, err
	}
	return append(b, payload...), nil
}

// Blob is a resolved dataset: a view of the stored encoding, not a copy of
// it. Exactly one of Data, Bits and Raw is set, by Kind, and each aliases
// the bytes the store holds under the dataset's content address (a volume's
// Data is a private copy only on the big-endian/misaligned fallback). A Blob
// is shared by every job resolving the same id, concurrently, for as long as
// anyone holds it, so the rule is: nobody may write. A write through a Blob
// would change bytes whose SHA-256 is their name. A consumer that needs a
// transformed volume writes it somewhere else (ffn's NormalizeInto, a
// threshold into a borrowed buffer), and nobody may hand Data or Floats() to
// a free list (ffn.ReleaseVolume, tensor.PutFloats): the store owns the
// memory and the GC reclaims it once the dataset is deleted and dropped.
type Blob struct {
	Kind    Kind
	D, H, W int
	// Data is a volume's voxels (nil for mask/checkpoint).
	Data []float32
	// Bits is a mask's packed payload, 1 bit per voxel, LSB-first (nil for
	// volume/checkpoint). Bit consumers (connect.FromBits) read it as is.
	Bits []byte
	// Raw holds a checkpoint's opaque payload bytes (nil for volume/mask).
	Raw []byte

	expand sync.Once
	floats []float32 // a mask's 0/1 expansion, built by the first Floats call

	sums       sync.Once
	sum, sumsq float64 // tensor.Sums of Floats(), computed by the first Sums call
}

// Voxels returns the element count.
func (b *Blob) Voxels() int { return b.D * b.H * b.W }

// Floats returns the payload as the float32 field the kernels consume: a
// volume's Data, or a mask expanded to 0/1. The expansion is 32x the packed
// mask, so it happens only when a float consumer asks (a segment or train
// job on a mask ref), at most once per Blob, and is shared and read-only
// like Data.
func (b *Blob) Floats() []float32 {
	if b.Kind != KindMask {
		return b.Data
	}
	b.expand.Do(func() {
		// DecodeHeader validated length and padding: this cannot fail.
		b.floats, _ = UnpackBits(b.Bits, b.Voxels())
	})
	return b.floats
}

// Sums returns the index-order float64 sum and sum of squares of Floats()
// (tensor.Sums): what a flood conditions the field with. Like a mask's
// expansion, they are computed by the first call, once per Blob however
// many jobs ask at once, and shared: every later job on the same content
// pays nothing for them.
func (b *Blob) Sums() (sum, sumsq float64) {
	b.sums.Do(func() { b.sum, b.sumsq = tensor.Sums(b.Floats()) })
	return b.sum, b.sumsq
}

// CloneData returns a private copy of the float32 payload, for a caller that
// must mutate it in place. The job handlers do not: they borrow read-only.
func (b *Blob) CloneData() []float32 {
	return append([]float32(nil), b.Floats()...)
}

// DecodeHeader reads just the codec prefix, validating magic, kind, dims,
// and that the byte length matches the dims exactly.
func DecodeHeader(enc []byte) (kind Kind, d, h, w int, err error) {
	if len(enc) < HeaderSize || [4]byte(enc[:4]) != magic {
		return 0, 0, 0, 0, fmt.Errorf("%w: missing CDS1 header", ErrBadEncoding)
	}
	kind = Kind(enc[4])
	if enc[5] != 0 || enc[6] != 0 || enc[7] != 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: non-zero header padding", ErrBadEncoding)
	}
	d = int(binary.LittleEndian.Uint32(enc[8:]))
	h = int(binary.LittleEndian.Uint32(enc[12:]))
	w = int(binary.LittleEndian.Uint32(enc[16:]))
	n, ok := Voxels(d, h, w)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("%w: dims %dx%dx%d out of range", ErrBadEncoding, d, h, w)
	}
	var want int
	switch kind {
	case KindVolume:
		want = 4 * n
	case KindMask:
		want = (n + 7) / 8
	case KindCheckpoint:
		if h != 1 || w != 1 {
			return 0, 0, 0, 0, fmt.Errorf("%w: checkpoint dims %dx%dx%d, want Nx1x1", ErrBadEncoding, d, h, w)
		}
		want = n
	default:
		return 0, 0, 0, 0, fmt.Errorf("%w: unknown kind %d", ErrBadEncoding, enc[4])
	}
	if len(enc) != HeaderSize+want {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d payload bytes, dims %dx%dx%d require %d",
			ErrBadEncoding, len(enc)-HeaderSize, d, h, w, want)
	}
	// Canonical-form check for masks (the store validates uploads through
	// this header path alone): stray set bits in the final byte would let
	// one logical mask hash to many content addresses, defeating dedup.
	if kind == KindMask {
		if rem := n % 8; rem != 0 && enc[len(enc)-1]>>rem != 0 {
			return 0, 0, 0, 0, fmt.Errorf("%w: non-zero padding bits past bit %d", ErrBadEncoding, n)
		}
	}
	return kind, d, h, w, nil
}

// Decode parses a full encoding into a Blob that views enc (see Blob): the
// caller must not modify enc afterwards. Only a volume whose payload cannot
// be reinterpreted in place (floatsView) is converted element by element
// into memory of its own.
func Decode(enc []byte) (*Blob, error) {
	kind, d, h, w, err := DecodeHeader(enc)
	if err != nil {
		return nil, err
	}
	b := &Blob{Kind: kind, D: d, H: h, W: w}
	payload := enc[HeaderSize:]
	switch kind {
	case KindVolume:
		if b.Data = floatsView(payload); b.Data == nil {
			b.Data = make([]float32, d*h*w)
			for i := range b.Data {
				b.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
			}
		}
	case KindMask:
		b.Bits = payload
	case KindCheckpoint:
		b.Raw = payload
	}
	return b, nil
}

// ID returns the dataset's content address: lowercase hex SHA-256 over the
// full encoding.
func ID(enc []byte) string {
	id := contentID(enc)
	return string(id[:])
}

// contentID is ID as an array, which a map lookup or a comparison can use
// as a string without allocating one.
func contentID(enc []byte) (id [2 * sha256.Size]byte) {
	sum := sha256.Sum256(enc)
	hex.Encode(id[:], sum[:])
	return id
}

// IDMismatchError is PutAt's refusal of content that does not hash to the
// id it was put at. Nothing was stored.
type IDMismatchError struct {
	Claimed, Actual string
}

func (e *IDMismatchError) Error() string {
	return fmt.Sprintf("dataset: content hashes to %s, not the claimed id %s", e.Actual, e.Claimed)
}

// ValidID reports whether s has the shape of a content address (64 lowercase
// hex chars).
func ValidID(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Info summarizes a stored dataset for listings.
type Info struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	D     int    `json:"d"`
	H     int    `json:"h"`
	W     int    `json:"w"`
	Bytes int    `json:"bytes"`
	Owner string `json:"owner,omitempty"`
}

// Config tunes a Manager.
type Config struct {
	// CacheBytes bounds the resolve cache (<= 0 = 128 MB). A volume or a
	// mask is charged its float32 footprint, a checkpoint its bytes.
	CacheBytes int
}

// Manager is the content-addressed dataset store: encoded blobs persist in
// an objstore bucket (replicated, heal-on-OSD-loss — the Ceph/Rook layer),
// and an LRU-bounded cache keeps recently resolved volumes decoded so a
// client that uploads once and submits many jobs pays the decode once.
// All methods are safe for concurrent use; the underlying objstore.Store is
// single-threaded, so every touch goes through the manager's mutex.
type Manager struct {
	mu     sync.Mutex
	mount  *objstore.Mount
	meta   map[string]Info
	owners map[string]map[string]bool // id -> every identity that put it
	pins   map[string]int
	kept   map[string]bool
	doomed map[string]bool

	cacheBytes    int
	cacheCapacity int
	cache         map[string]*list.Element
	lru           *list.List // front = most recent; values are *cacheEntry
}

type cacheEntry struct {
	id    string
	blob  *Blob
	bytes int
}

// NewManager builds a manager over a mount (one bucket of a store).
func NewManager(mount *objstore.Mount, cfg Config) *Manager {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 128 << 20
	}
	return &Manager{
		mount:         mount,
		meta:          make(map[string]Info),
		owners:        make(map[string]map[string]bool),
		pins:          make(map[string]int),
		kept:          make(map[string]bool),
		doomed:        make(map[string]bool),
		cacheCapacity: cfg.CacheBytes,
		cache:         make(map[string]*list.Element),
		lru:           list.New(),
	}
}

// NewLocal builds a self-contained manager for in-process use (the default
// the service Runner falls back to): a private virtual-time objstore with
// three OSDs and 3-way replication, mounted at the "datasets" bucket.
func NewLocal() *Manager {
	clk := sim.NewClock()
	store := objstore.NewStore(clk, nil, objstore.Config{Replicas: 3})
	for i := 0; i < 3; i++ {
		store.AddOSD(fmt.Sprintf("osd-%d", i), "local", 1e12, 1)
	}
	return NewManager(store.MountBucket("datasets"), Config{})
}

// Put validates and stores an encoded dataset, returning its Info. Putting
// bytes that already exist is an idempotent no-op (content addressing:
// same bytes, same id); every putter is registered as an owner — they
// proved possession of the content, so a duplicate upload grants them the
// same read/submit scope as the first. Put marks the dataset kept
// (durable user data: uploads, result offloads, ingests) — Delete never
// removes kept ids; producers of transient intermediates use PutPinned.
func (m *Manager) Put(enc []byte, owner string) (Info, error) {
	info, _, err := m.put(enc, "", owner, true, false)
	return info, err
}

// PutAt is Put at a claimed id: the gateway's PUT contract, where the id in
// the request path is a claim the server verifies. The encoding is hashed
// once, and that one hash both checks the claim and addresses the content.
// Content that hashes elsewhere is refused with an *IDMismatchError naming
// its real id, before anything is stored.
func (m *Manager) PutAt(id string, enc []byte, owner string) (Info, error) {
	info, _, err := m.put(enc, id, owner, true, false)
	return info, err
}

// PutPinned is Put without the kept mark, additionally reporting whether
// the bytes were newly stored (false means the content was already
// present, possibly owned by someone else). Producers of deletable
// intermediates use it to know which ids are theirs to release, and
// promote an intermediate to durable data with Keep when it becomes a
// result. The Pin is taken under the same lock acquisition, closing the
// window where a concurrent releaser could delete a content-colliding id
// between the put and a separate Pin call. The caller owes one Unpin.
func (m *Manager) PutPinned(enc []byte, owner string) (Info, bool, error) {
	return m.put(enc, "", owner, false, true)
}

// put stores (or re-registers) encoded bytes under one lock acquisition,
// so the kept mark and/or pin land atomically with the write — a
// concurrent intermediate release can never delete a just-Put dataset.
// A non-empty claimed id must be the content's (PutAt). The returned Info
// carries the caller's own identity in Owner (never another uploader's),
// so duplicate-upload replies leak nothing.
func (m *Manager) put(enc []byte, claimed, owner string, keep, pin bool) (Info, bool, error) {
	if len(enc) > MaxEncodedBytes {
		return Info{}, false, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(enc), MaxEncodedBytes)
	}
	id := contentID(enc)
	if claimed != "" && string(id[:]) != claimed {
		return Info{}, false, &IDMismatchError{Claimed: claimed, Actual: string(id[:])}
	}
	kind, d, h, w, err := DecodeHeader(enc)
	if err != nil {
		return Info{}, false, err
	}
	return m.store(enc, Info{ID: string(id[:]), Kind: kind.String(), D: d, H: h, W: w, Bytes: len(enc), Owner: owner}, keep, pin)
}

// store writes a validated encoding under info.ID, its content address, and
// registers info.Owner — or, when the id is already stored, only registers.
func (m *Manager) store(enc []byte, info Info, keep, pin bool) (Info, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	stored, ok := m.meta[info.ID]
	if !ok {
		if err := m.mount.WriteFile(info.ID, enc); err != nil {
			return Info{}, false, err
		}
		m.meta[info.ID] = info
		stored = info
	}
	return m.registerLocked(stored, info.Owner, keep, pin), !ok, nil
}

// registerLocked is what every put of stored content does, whether it wrote
// the bytes or found them there: a pending deferred delete is revoked (the
// bytes are wanted again), owner joins the owners, and the kept mark and the
// pin land. It returns info with owner in Owner. m.mu held.
func (m *Manager) registerLocked(info Info, owner string, keep, pin bool) Info {
	delete(m.doomed, info.ID)
	m.addOwnerLocked(info.ID, owner)
	if keep {
		m.kept[info.ID] = true
	}
	if pin {
		m.pins[info.ID]++
	}
	info.Owner = owner
	return info
}

// addOwnerLocked registers an identity on the dataset. m.mu held.
func (m *Manager) addOwnerLocked(id, owner string) {
	set := m.owners[id]
	if set == nil {
		set = make(map[string]bool, 1)
		m.owners[id] = set
	}
	set[owner] = true
}

// VisibleTo reports whether caller is in the dataset's ownership scope:
// open datasets (any owner registered as "", "anonymous", or never
// recorded) are visible to everyone; otherwise the caller must be a
// registered owner. This single predicate backs both the gateway's
// dataset endpoints and the service's submit-time ref check, so the two
// can never drift.
func (m *Manager) VisibleTo(id, caller string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.meta[id]; !ok {
		return false
	}
	// Every live dataset has at least one registered owner (put always
	// records one, "" included); an empty set means the last claim was
	// dropped and only a pin is holding the bytes for a running job —
	// nobody may see it anymore.
	set := m.owners[id]
	return set[""] || set["anonymous"] || set[caller]
}

// IsOwner reports whether caller personally put (or ingested) the dataset
// — stricter than VisibleTo, which open markers satisfy too.
func (m *Manager) IsOwner(id, caller string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owners[id][caller]
}

// Drop removes caller's ownership claim on a dataset — the reclamation
// path for kept data, bounding the store against upload-and-forget
// growth. When the last claim drops, the kept mark is lifted and the
// dataset deleted (deferred while pinned, as usual). An anonymous caller
// may drop the open markers ("" / "anonymous"). Reports whether a claim
// was removed.
func (m *Manager) Drop(id, caller string) bool {
	if !ValidID(id) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.owners[id]
	who := caller
	if !set[who] && caller == "anonymous" && set[""] {
		who = ""
	}
	if !set[who] {
		return false
	}
	delete(set, who)
	if len(set) > 0 {
		return true
	}
	delete(m.owners, id)
	delete(m.kept, id)
	if m.pins[id] > 0 {
		m.doomed[id] = true
		return true
	}
	m.deleteLocked(id)
	return true
}

// Keep marks a dataset durable: Delete (including a deferred one pending
// on its pins) will never remove it. Call while holding a Pin (or before
// any concurrent deleter can see the id) to make promotion race-free.
func (m *Manager) Keep(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.meta[id]; ok {
		m.kept[id] = true
		delete(m.doomed, id)
	}
}

// PutVolume encodes and stores a float32 volume.
func (m *Manager) PutVolume(d, h, w int, data []float32, owner string) (Info, error) {
	enc, err := EncodeVolume(d, h, w, data)
	if err != nil {
		return Info{}, err
	}
	return m.Put(enc, owner)
}

// PutMask stores a binary mask (1 bit/voxel) as Put stores its encoding.
// The mask is packed once, into an encoding borrowed from the tensor free
// list, and hashed there (putBorrowed).
func (m *Manager) PutMask(d, h, w int, data []float32, owner string) (Info, error) {
	if err := checkMask(d, h, w, data); err != nil {
		return Info{}, err
	}
	buf, enc := borrowEncoding(maskEncodedLen(len(data)))
	defer tensor.PutWords(buf)
	encodeMaskInto(enc, d, h, w, data)
	return m.putBorrowed(enc, Info{Kind: KindMask.String(), D: d, H: h, W: w, Owner: owner})
}

// PutMaskWords is PutMask for a mask that is already bits: voxel i is bit
// i%32 of words[i/32], (n+31)/32 words for n voxels, every bit past n zero —
// an ffn.Mask. The header and the words' little-endian bytes go into a
// borrowed encoding, which is hashed there (putBorrowed). Nothing is packed.
func (m *Manager) PutMaskWords(d, h, w int, words []uint32, owner string) (Info, error) {
	n, err := checkMaskWords(d, h, w, words)
	if err != nil {
		return Info{}, err
	}
	buf, enc := borrowEncoding(maskEncodedLen(n))
	defer tensor.PutWords(buf)
	clear(enc[:HeaderSize])
	putHeader(enc, KindMask, d, h, w)
	putWordBits(enc[HeaderSize:], words)
	return m.putBorrowed(enc, Info{Kind: KindMask.String(), D: d, H: h, W: w, Owner: owner})
}

// borrowEncoding borrows n bytes, contents unspecified, from the tensor
// free list: enc views the words, which the caller hands back with
// tensor.PutWords.
func borrowEncoding(n int) (words []uint32, enc []byte) {
	words = tensor.GetWords((n + 3) / 4)
	return words, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// putBorrowed stores enc, an encoding in a borrowed buffer described by
// info, and marks it kept, as Put does. Re-putting content the store holds
// registers the putter and allocates nothing; only a new id copies enc into
// memory the store keeps.
func (m *Manager) putBorrowed(enc []byte, info Info) (Info, error) {
	id := contentID(enc)
	m.mu.Lock()
	if stored, ok := m.meta[string(id[:])]; ok { // the conversion is only a lookup key
		stored = m.registerLocked(stored, info.Owner, true, false)
		m.mu.Unlock()
		return stored, nil
	}
	m.mu.Unlock()
	info.ID, info.Bytes = string(id[:]), len(enc)
	info, _, err := m.store(bytes.Clone(enc), info, true, false)
	return info, err
}

// GetBytes returns the raw encoding of a dataset — the gateway's GET body.
func (m *Manager) GetBytes(id string) ([]byte, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	enc, err := m.mount.ReadFile(id)
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return enc, err
}

// Resolve returns the decoded dataset, serving repeat resolves from the LRU
// cache. The returned Blob is shared and read-only (see Blob).
func (m *Manager) Resolve(id string) (*Blob, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.cache[id]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).blob, nil
	}
	enc, err := m.mount.ReadFile(id)
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	blob, err := Decode(enc)
	if err != nil {
		return nil, err
	}
	m.cacheLocked(id, blob)
	return blob, nil
}

// cacheLocked inserts a decoded blob and evicts LRU entries past the byte
// budget. m.mu held.
func (m *Manager) cacheLocked(id string, blob *Blob) {
	// A mask is charged what it grows to if a float consumer expands it.
	cost := len(blob.Raw)
	if blob.Kind != KindCheckpoint {
		cost = 4 * blob.Voxels()
	}
	if cost > m.cacheCapacity {
		return // larger than the whole cache; don't thrash it
	}
	m.cache[id] = m.lru.PushFront(&cacheEntry{id: id, blob: blob, bytes: cost})
	m.cacheBytes += cost
	for m.cacheBytes > m.cacheCapacity {
		el := m.lru.Back()
		if el == nil {
			break
		}
		ent := m.lru.Remove(el).(*cacheEntry)
		delete(m.cache, ent.id)
		m.cacheBytes -= ent.bytes
	}
}

// CachedBytes reports the resolve cache's current footprint (tests).
func (m *Manager) CachedBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheBytes
}

// Stat returns a dataset's Info without touching its payload.
func (m *Manager) Stat(id string) (Info, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.meta[id]
	return info, ok
}

// Placement resolves the objstore replica set currently holding a dataset's
// bytes — which OSDs, at which sites, and whether each daemon is up. The
// placement scheduler scores node candidates against it (data gravity). The
// underlying store is single-threaded, so the query runs under the
// manager's lock like every other store touch.
func (m *Manager) Placement(id string) []objstore.Replica {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mount.ReplicaPlacement(id)
}

// FailOSD marks a storage daemon down, immediately remapping its placement
// groups to surviving OSDs — after it returns, Placement only names
// survivors. RecoverOSD reverses it. Both run under the manager's lock so
// fault injection cannot race a concurrent Resolve.
func (m *Manager) FailOSD(osd string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.mount.FailOSD(osd)
	return err
}

// RecoverOSD brings a failed daemon back into placement.
func (m *Manager) RecoverOSD(osd string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mount.RecoverOSD(osd)
}

// List returns every stored dataset's Info, sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.meta))
	for _, info := range m.meta {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Pin marks a dataset in-use: deleting a pinned id is deferred until its
// last Unpin, so a producer releasing its intermediates cannot pull a blob
// out from under a concurrent job that content-collided into the same id.
func (m *Manager) Pin(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pins[id]++
}

// Pinned snapshots every live pin count, keyed by dataset id. Leak checks
// assert it is empty once all jobs are terminal: each submit-time or
// producer-side Pin must have been matched by exactly one Unpin.
func (m *Manager) Pinned() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.pins))
	for id, n := range m.pins {
		out[id] = n
	}
	return out
}

// Unpin reverses one Pin, executing a deferred Delete when the last pin
// drops and no Put has revived the content in the meantime.
func (m *Manager) Unpin(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pins[id] > 1 {
		m.pins[id]--
		return
	}
	delete(m.pins, id)
	if m.doomed[id] {
		delete(m.doomed, id)
		m.deleteLocked(id)
	}
}

// Delete removes a dataset and its cache entry. Deleting a missing or
// kept id is a no-op; deleting a pinned id is deferred until its last
// Unpin (unless a Put or Keep revives the content first), so intent to
// delete is neither lost nor able to destroy data another party claimed —
// even across jobs sharing a content-collided id.
func (m *Manager) Delete(id string) {
	if !ValidID(id) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.meta[id]; !ok || m.kept[id] {
		return
	}
	if m.pins[id] > 0 {
		m.doomed[id] = true
		return
	}
	m.deleteLocked(id)
}

// deleteLocked drops the dataset, its metadata, and its cache entry. m.mu
// held.
func (m *Manager) deleteLocked(id string) {
	if el, ok := m.cache[id]; ok {
		ent := m.lru.Remove(el).(*cacheEntry)
		delete(m.cache, ent.id)
		m.cacheBytes -= ent.bytes
	}
	if _, ok := m.meta[id]; ok {
		delete(m.meta, id)
		delete(m.owners, id)
		delete(m.kept, id)
		_ = m.mount.Remove(id)
	}
}
