package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/merra"
)

// testIVTField materializes the deterministic synthetic IVT volume the
// ref-vs-inline tests submit both ways.
func testIVTField(steps int) (d, h, w int, data []float32) {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	gen := merra.NewGenerator(g, 11)
	vol := merra.IVTVolume(gen, merra.PressureLevels(g.NLev), 0, steps)
	return steps, g.NLat, g.NLon, vol.Data
}

// putDataset uploads encoded bytes through the gateway and returns the Info.
func (f *gwFixture) putDataset(enc []byte) dataset.Info {
	f.t.Helper()
	id := dataset.ID(enc)
	req, err := http.NewRequest("PUT", f.srv.URL+"/v1/datasets/"+id, bytes.NewReader(enc))
	if err != nil {
		f.t.Fatal(err)
	}
	if f.token != "" {
		req.Header.Set("Authorization", "Bearer "+f.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("PUT dataset: status %d: %s", resp.StatusCode, body)
	}
	var info dataset.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		f.t.Fatal(err)
	}
	return info
}

// getDataset fetches a dataset's raw bytes through the gateway.
func (f *gwFixture) getDataset(id string) []byte {
	f.t.Helper()
	req, err := http.NewRequest("GET", f.srv.URL+"/v1/datasets/"+id, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if f.token != "" {
		req.Header.Set("Authorization", "Bearer "+f.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("GET dataset %s: status %d: %s", id, resp.StatusCode, body)
	}
	enc, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	return enc
}

func TestGatewayDatasetPutGetRoundTrip(t *testing.T) {
	f := newGWFixture(t, true)
	d, h, w, data := testIVTField(2)
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}

	info := f.putDataset(enc)
	if info.ID != dataset.ID(enc) || info.Kind != "volume" || info.D != d {
		t.Fatalf("info = %+v", info)
	}
	// Re-upload is idempotent.
	if again := f.putDataset(enc); again.ID != info.ID {
		t.Fatalf("re-upload changed id: %s vs %s", again.ID, info.ID)
	}
	back := f.getDataset(info.ID)
	if !bytes.Equal(back, enc) {
		t.Fatal("downloaded bytes differ from upload")
	}
	// Listing includes it.
	var list []dataset.Info
	if resp := f.do("GET", "/v1/datasets", nil, &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestGatewayDatasetPutRejectsBadUploads(t *testing.T) {
	f := newGWFixture(t, true)
	d, h, w, data := testIVTField(1)
	enc, _ := dataset.EncodeVolume(d, h, w, data)

	// Path id that is not the content's hash -> 400.
	wrong := strings.Repeat("ab", 32)
	req, _ := http.NewRequest("PUT", f.srv.URL+"/v1/datasets/"+wrong, bytes.NewReader(enc))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hash mismatch: status %d, want 400", resp.StatusCode)
	}
	// Malformed id -> 400.
	req, _ = http.NewRequest("PUT", f.srv.URL+"/v1/datasets/not-hex", bytes.NewReader(enc))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}
	// Corrupt body -> 400 (POST path: server computes the id).
	req, _ = http.NewRequest("POST", f.srv.URL+"/v1/datasets", bytes.NewReader([]byte("junk")))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, want 400", resp.StatusCode)
	}
	// Missing dataset -> 404.
	req, _ = http.NewRequest("GET", f.srv.URL+"/v1/datasets/"+strings.Repeat("cd", 32), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dataset: status %d, want 404", resp.StatusCode)
	}
}

func TestGatewayDatasetOwnership(t *testing.T) {
	f := newGWFixture(t, false)
	login := func(user string) string {
		var out struct {
			Token string `json:"token"`
		}
		if resp := f.do("POST", "/v1/login", map[string]string{"user": user}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("login %s: status %d", user, resp.StatusCode)
		}
		return out.Token
	}
	alice, bob := login("alice@ucsd.edu"), login("bob@sdsc.edu")

	d, h, w, data := testIVTField(1)
	enc, _ := dataset.EncodeVolume(d, h, w, data)
	f.token = alice
	info := f.putDataset(enc)

	// Bob cannot fetch Alice's dataset — and the reply is the same 404 a
	// truly missing id gets, so GET is not an existence oracle for
	// content hashes. His listing excludes it too.
	f.token = bob
	req, _ := http.NewRequest("GET", f.srv.URL+"/v1/datasets/"+info.ID, nil)
	req.Header.Set("Authorization", "Bearer "+bob)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bob GET: status %d, want 404 (indistinguishable from missing)", resp.StatusCode)
	}
	var list []dataset.Info
	f.do("GET", "/v1/datasets", nil, &list)
	if len(list) != 0 {
		t.Fatalf("bob sees %d datasets, want 0", len(list))
	}
	// Bob also cannot compute over Alice's ref: submit enforces the same
	// ownership scope, with the same reply as a missing ref so submit is
	// not an existence oracle for private refs.
	jobReq := &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source:    api.VolumeSource{Ref: info.ID},
		Threshold: 0.5,
	}}
	resp = f.do("POST", "/v1/jobs", jobReq, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bob submit over alice's ref: status %d, want 400", resp.StatusCode)
	}
	f.token = alice
	if got := f.getDataset(info.ID); !bytes.Equal(got, enc) {
		t.Fatal("alice cannot read her own dataset")
	}
	// And alice can compute over it.
	var sub api.SubmitResponse
	if resp = f.do("POST", "/v1/jobs", jobReq, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice submit over her own ref: status %d, want 202", resp.StatusCode)
	}

	// If bob uploads the identical bytes he proves possession of the
	// content: the dedup reply carries *his* identity (not alice's), and
	// he gains the same read/submit scope as any owner.
	f.token = bob
	dup := f.putDataset(enc)
	if dup.ID != info.ID {
		t.Fatalf("duplicate upload changed id: %s vs %s", dup.ID, info.ID)
	}
	if dup.Owner != "bob@sdsc.edu" {
		t.Fatalf("duplicate-upload reply leaks owner %q", dup.Owner)
	}
	if got := f.getDataset(info.ID); !bytes.Equal(got, enc) {
		t.Fatal("co-owner bob cannot read the dataset he uploaded")
	}
	if resp = f.do("POST", "/v1/jobs", jobReq, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("co-owner bob submit: status %d, want 202", resp.StatusCode)
	}
	// His listing shows the entry under his own identity.
	f.do("GET", "/v1/datasets", nil, &list)
	if len(list) != 1 || list[0].Owner != "bob@sdsc.edu" {
		t.Fatalf("bob's listing after co-upload = %+v", list)
	}
}

func TestGatewaySubmitDanglingRef(t *testing.T) {
	f := newGWFixture(t, true)
	req := &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source:    api.VolumeSource{Ref: strings.Repeat("ef", 32)},
		Threshold: 0.5,
	}}
	resp := f.do("POST", "/v1/jobs", req, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dangling ref: status %d, want 400", resp.StatusCode)
	}
}

// TestGatewayRefSubmitBitExactVsInline is the PR's acceptance check: a
// segment job submitted by ref returns bit-identical mask and stats to the
// same job submitted inline, end to end through the HTTP gateway.
func TestGatewayRefSubmitBitExactVsInline(t *testing.T) {
	f := newGWFixture(t, true)
	d, h, w, data := testIVTField(4)
	segSpec := func(src api.VolumeSource) *api.SegmentSpec {
		return &api.SegmentSpec{
			Source:     src,
			Threshold:  120,
			Net:        &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, MoveProb: 0.6},
			SeedStride: [3]int{1, 4, 4},
			ReturnMask: true,
		}
	}

	// Inline submit: the whole volume rides the request, the mask rides
	// the result (1-bit packed).
	st, env := f.submitAndWait(&api.JobRequest{
		Kind:    api.KindSegment,
		Segment: segSpec(api.VolumeSource{D: d, H: h, W: w, Data: data}),
	})
	if st.State != api.StateSucceeded {
		t.Fatalf("inline job: %s (%s)", st.State, st.Error)
	}
	var inline api.SegmentResult
	if err := json.Unmarshal(env.Result, &inline); err != nil {
		t.Fatal(err)
	}
	if inline.MaskBits == nil || inline.MaskRef != "" {
		t.Fatalf("inline result carries wrong mask form: %+v", st)
	}

	// Ref submit: upload once, submit the 64-byte ref, get a mask ref back.
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	info := f.putDataset(enc)
	st, env = f.submitAndWait(&api.JobRequest{
		Kind:       api.KindSegment,
		ResultMode: api.ResultModeRef,
		Segment:    segSpec(api.VolumeSource{Ref: info.ID}),
	})
	if st.State != api.StateSucceeded {
		t.Fatalf("ref job: %s (%s)", st.State, st.Error)
	}
	var byRef api.SegmentResult
	if err := json.Unmarshal(env.Result, &byRef); err != nil {
		t.Fatal(err)
	}
	if byRef.MaskRef == "" || byRef.MaskBits != nil {
		t.Fatalf("ref result carries wrong mask form: mask_ref=%q", byRef.MaskRef)
	}

	// Stats bit-identical.
	if inline.Steps != byRef.Steps || inline.Moves != byRef.Moves ||
		inline.SeedsUsed != byRef.SeedsUsed || inline.MaskVoxels != byRef.MaskVoxels ||
		inline.VoxelsTotal != byRef.VoxelsTotal {
		t.Fatalf("stats diverge: inline %+v vs ref %+v", inline, byRef)
	}
	// Masks bit-identical: unpack the inline bits, fetch + decode the ref.
	inlineMask, err := dataset.UnpackBits(inline.MaskBits, d*h*w)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dataset.Decode(f.getDataset(byRef.MaskRef))
	if err != nil {
		t.Fatal(err)
	}
	if blob.Kind != dataset.KindMask || blob.D != d || blob.H != h || blob.W != w {
		t.Fatalf("mask dataset header: %+v", blob)
	}
	for i := range inlineMask {
		if inlineMask[i] != blob.Floats()[i] {
			t.Fatalf("mask voxel %d differs: inline %v, ref %v", i, inlineMask[i], blob.Floats()[i])
		}
	}
}

// TestIVTRefChainsIntoLabel: an IVT job in ref mode emits a volume ref a
// label job can consume directly — the derived field never crosses the
// gateway.
func TestIVTRefChainsIntoLabel(t *testing.T) {
	r := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer r.Close()
	synth := api.SynthSpec{NLon: 36, NLat: 24, NLev: 6, Steps: 3, Seed: 11}

	st, err := r.Submit(&api.JobRequest{
		Kind:       api.KindIVT,
		ResultMode: api.ResultModeRef,
		IVT:        &api.IVTSpec{Synth: synth},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ := r.Result(st.ID)
	var ivtRes api.IVTResult
	if err := json.Unmarshal(raw, &ivtRes); err != nil {
		t.Fatal(err)
	}
	if ivtRes.VolumeRef == "" {
		t.Fatal("ref-mode ivt job returned no volume_ref")
	}
	blob, err := r.Datasets().Resolve(ivtRes.VolumeRef)
	if err != nil {
		t.Fatal(err)
	}
	if blob.D != synth.Steps || blob.H != synth.NLat || blob.W != synth.NLon {
		t.Fatalf("volume_ref dims %dx%dx%d", blob.D, blob.H, blob.W)
	}

	labelSpec := func(src api.VolumeSource) *api.LabelSpec {
		return &api.LabelSpec{Source: src, Threshold: 150, MinVoxels: 2}
	}
	st, err = r.Submit(&api.JobRequest{Kind: api.KindLabel, Label: labelSpec(api.VolumeSource{Ref: ivtRes.VolumeRef})}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ = r.Result(st.ID)
	var byRef api.LabelResult
	if err := json.Unmarshal(raw, &byRef); err != nil {
		t.Fatal(err)
	}

	st, err = r.Submit(&api.JobRequest{Kind: api.KindLabel, Label: labelSpec(api.VolumeSource{
		D: blob.D, H: blob.H, W: blob.W, Data: blob.CloneData(),
	})}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ = r.Result(st.ID)
	var inline api.LabelResult
	if err := json.Unmarshal(raw, &inline); err != nil {
		t.Fatal(err)
	}
	if inline.Objects != byRef.Objects || inline.TotalVoxels != byRef.TotalVoxels ||
		inline.MaxDuration != byRef.MaxDuration {
		t.Fatalf("label by ref %+v diverges from inline %+v", byRef, inline)
	}
}

// TestSlabChainsMatchSequentialJobs: the slab analysis of a multi-step
// scene is one ivt -> segment -> label chain per time slab, each job
// consuming the one before it by ref: the ivt job stores the slab's field
// (synth start/steps), the segment job floods it and stores its mask, the
// label job scans that mask where it lies. On the 36x24x8 scene cut into
// slabs of 3 steps, every chain reproduces the mask id, flood steps and
// object count the retired pipeline kind reported for the same slab, and
// each slab's stored field is those steps of the field the whole scene's
// ivt job stores.
func TestSlabChainsMatchSequentialJobs(t *testing.T) {
	r := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer r.Close()
	scene := api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}
	var whole api.IVTResult
	if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef,
		IVT: &api.IVTSpec{Synth: scene}}), &whole); err != nil {
		t.Fatal(err)
	}
	field, err := r.Datasets().Resolve(whole.VolumeRef)
	if err != nil {
		t.Fatal(err)
	}
	hw := scene.NLon * scene.NLat
	for i, want := range []struct {
		start, steps      int
		maskRef           string
		segSteps, objects int
	}{
		{0, 3, "4005dcfbae5bde68fd20ceb2a1f5c3774e30b56ed39c6fab63f4bbc486c4a890", 28, 0},
		{3, 3, "11d432234805bf8a877003623c8ecb8011e0ea3a461c5614132e62d483e4800a", 28, 1},
		{6, 2, "84efbae80c0f4b8e5b4795ac295bd5c75c6bcd5b9ddd60673db0fb9edcce1af0", 0, 0},
	} {
		slab := scene
		slab.Start, slab.Steps = want.start, want.steps
		var ivt api.IVTResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef,
			IVT: &api.IVTSpec{Synth: slab}}), &ivt); err != nil {
			t.Fatal(err)
		}
		blob, err := r.Datasets().Resolve(ivt.VolumeRef)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range blob.Floats() {
			if v != field.Floats()[want.start*hw+j] {
				t.Fatalf("slab %d voxel %d: %v, the whole scene's field has %v", i, j, v, field.Floats()[want.start*hw+j])
			}
		}

		var seg api.SegmentResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
			Segment: slabSegmentSpec(api.VolumeSource{Ref: ivt.VolumeRef})}), &seg); err != nil {
			t.Fatal(err)
		}
		if seg.MaskRef != want.maskRef || seg.Steps != want.segSteps || seg.VoxelsTotal != want.steps*hw {
			t.Fatalf("slab %d segment: mask %s, %d steps over %d voxels; want mask %s, %d steps",
				i, seg.MaskRef, seg.Steps, seg.VoxelsTotal, want.maskRef, want.segSteps)
		}

		var lab api.LabelResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
			Source: api.VolumeSource{Ref: seg.MaskRef}, Threshold: 0.5, MinVoxels: 2,
		}}), &lab); err != nil {
			t.Fatal(err)
		}
		if lab.Objects != want.objects {
			t.Fatalf("slab %d label: %d objects, want %d", i, lab.Objects, want.objects)
		}
	}
}

// slabSegmentSpec is the segment leg of a slab chain: the net and seeding
// whose masks TestSlabChainsMatchSequentialJobs pins.
func slabSegmentSpec(src api.VolumeSource) *api.SegmentSpec {
	return &api.SegmentSpec{
		Source:     src,
		Threshold:  120,
		Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 4, MoveProb: 0.6},
		SeedStride: [3]int{1, 4, 4},
		ReturnMask: true,
	}
}

// TestSlabChainRefLifecycle: a ref-mode chain leaves each slab's mask in
// the store, resolvable, with one set bit per voxel its segment job
// counted; once the caller drops the slab fields, the masks are all the
// analysis keeps. The same chains run inline (the segment job synthesizes
// its slab, the label job reads the returned bits) store nothing and
// reproduce every mask bit and count.
func TestSlabChainRefLifecycle(t *testing.T) {
	r := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer r.Close()
	scene := api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}
	const slabSteps = 2
	label := func(src api.VolumeSource) api.LabelResult {
		t.Helper()
		var lab api.LabelResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
			Source: src, Threshold: 0.5, MinVoxels: 2,
		}}), &lab); err != nil {
			t.Fatal(err)
		}
		return lab
	}
	type chain struct {
		seg  api.SegmentResult
		mask []float32
		lab  api.LabelResult
	}
	var byRef []chain
	masks := make(map[string]bool)
	for start := 0; start < scene.Steps; start += slabSteps {
		slab := scene
		slab.Start, slab.Steps = start, slabSteps
		var ivt api.IVTResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef,
			IVT: &api.IVTSpec{Synth: slab}}), &ivt); err != nil {
			t.Fatal(err)
		}
		var c chain
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
			Segment: slabSegmentSpec(api.VolumeSource{Ref: ivt.VolumeRef})}), &c.seg); err != nil {
			t.Fatal(err)
		}
		if c.seg.MaskRef == "" || c.seg.MaskBits != nil {
			t.Fatalf("slab at step %d: ref-mode segment result has mask_ref %q and %d inline bytes", start, c.seg.MaskRef, len(c.seg.MaskBits))
		}
		blob, err := r.Datasets().Resolve(c.seg.MaskRef)
		if err != nil {
			t.Fatalf("slab at step %d: mask: %v", start, err)
		}
		if blob.Kind != dataset.KindMask || blob.D != slabSteps || blob.H != scene.NLat || blob.W != scene.NLon {
			t.Fatalf("slab at step %d: stored mask is a %v of %dx%dx%d", start, blob.Kind, blob.D, blob.H, blob.W)
		}
		c.mask = blob.CloneData()
		set := 0
		for _, v := range c.mask {
			if v != 0 {
				set++
			}
		}
		if set != c.seg.MaskVoxels {
			t.Fatalf("slab at step %d: stored mask has %d voxels, the segment job counted %d", start, set, c.seg.MaskVoxels)
		}
		c.lab = label(api.VolumeSource{Ref: c.seg.MaskRef})
		if !r.Datasets().Drop(ivt.VolumeRef, "") {
			t.Fatalf("slab at step %d: the caller holds no claim on the field its ivt job stored", start)
		}
		masks[c.seg.MaskRef] = true
		byRef = append(byRef, c)
	}
	// Identical masks dedup to one stored dataset, so count unique refs.
	if got := len(r.Datasets().List()); got != len(masks) {
		t.Fatalf("store holds %d datasets once the fields are dropped, want the %d masks", got, len(masks))
	}

	for i, want := range byRef {
		slab := scene
		slab.Start, slab.Steps = i*slabSteps, slabSteps
		var seg api.SegmentResult
		if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindSegment,
			Segment: slabSegmentSpec(api.VolumeSource{Synth: &slab})}), &seg); err != nil {
			t.Fatal(err)
		}
		if seg.MaskRef != "" {
			t.Fatalf("slab %d: inline-mode segment job stored mask %s", i, seg.MaskRef)
		}
		if seg.Steps != want.seg.Steps || seg.Moves != want.seg.Moves || seg.SeedsUsed != want.seg.SeedsUsed ||
			seg.MaskVoxels != want.seg.MaskVoxels || seg.VoxelsTotal != want.seg.VoxelsTotal ||
			seg.D != want.seg.D || seg.H != want.seg.H || seg.W != want.seg.W {
			t.Fatalf("slab %d: inline segment %+v diverges from the chain's %+v", i, seg, want.seg)
		}
		mask, err := dataset.UnpackBits(seg.MaskBits, seg.VoxelsTotal)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range mask {
			if v != want.mask[j] {
				t.Fatalf("slab %d voxel %d: inline mask %v, stored mask %v", i, j, v, want.mask[j])
			}
		}
		lab := label(api.VolumeSource{D: seg.D, H: seg.H, W: seg.W, Data: mask})
		if !reflect.DeepEqual(lab, want.lab) {
			t.Fatalf("slab %d: label of the inline mask %+v diverges from label by ref %+v", i, lab, want.lab)
		}
	}
	if got := len(r.Datasets().List()); got != len(masks) {
		t.Fatalf("store holds %d datasets after the inline chains, want the %d masks only", got, len(masks))
	}
}

// TestSlabChainProgressReachesTotal: each leg of a finished chain reports
// its own kernel's progress to the end: the ivt job one count per time
// step synthesized, the segment job its flood's network applications
// (total unknown), the label job one count per time step labelled.
func TestSlabChainProgressReachesTotal(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	slab := api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Start: 3, Steps: 3, Seed: 11}
	run := func(req *api.JobRequest, res any) api.JobStatus {
		t.Helper()
		st, err := r.Submit(req, "")
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, r, st.ID, terminal)
		if final.State != api.StateSucceeded {
			t.Fatalf("%s job: %s (%s)", req.Kind, final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		if err := json.Unmarshal(raw, res); err != nil {
			t.Fatal(err)
		}
		return final
	}
	var ivt api.IVTResult
	st := run(&api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef, IVT: &api.IVTSpec{Synth: slab}}, &ivt)
	if st.Stage != "ivt" || st.Done != 3 || st.Total != 3 {
		t.Fatalf("ivt job ended at %s %d/%d, want ivt 3/3", st.Stage, st.Done, st.Total)
	}
	var seg api.SegmentResult
	st = run(&api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
		Segment: slabSegmentSpec(api.VolumeSource{Ref: ivt.VolumeRef})}, &seg)
	if seg.Steps == 0 || st.Stage != "segment" || st.Done != int64(seg.Steps) || st.Total != 0 {
		t.Fatalf("segment job ended at %s %d/%d after %d flood steps, want segment %d/0", st.Stage, st.Done, st.Total, seg.Steps, seg.Steps)
	}
	var lab api.LabelResult
	st = run(&api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source: api.VolumeSource{Ref: seg.MaskRef}, Threshold: 0.5, MinVoxels: 2,
	}}, &lab)
	if st.Stage != "label" || st.Done != 3 || st.Total != 3 {
		t.Fatalf("label job ended at %s %d/%d, want label 3/3", st.Stage, st.Done, st.Total)
	}
}

// TestSlabChainCancelledLegStoresNothing: cancelling a chain's segment job
// mid-flood stores no mask (the partial mask rides the result as bits)
// and leaves the field it read stored and intact. Re-running the ivt job
// lands on the same ref, and the chain goes on from it: a segment job on
// the ref stores a mask whose every voxel a label job finds.
func TestSlabChainCancelledLegStoresNothing(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 2)
	ivtReq := &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef,
		IVT: &api.IVTSpec{Synth: api.SynthSpec{NLon: 48, NLat: 32, NLev: 4, Steps: 30, Seed: 7}}}
	var ivt api.IVTResult
	if err := json.Unmarshal(runJob(t, r, ivtReq), &ivt); err != nil {
		t.Fatal(err)
	}
	net := &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 4, MoveProb: 0.55}
	st, err := r.Submit(&api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source:     api.VolumeSource{Ref: ivt.VolumeRef},
		Threshold:  1, // nearly every voxel seeds: plenty of work
		Net:        net,
		SeedStride: [3]int{1, 3, 3},
		ReturnMask: true,
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.Stage == "segment" && s.Done > 0 })
	if !r.Cancel(st.ID) {
		t.Fatal("cancel refused")
	}
	if final := waitState(t, r, st.ID, terminal); final.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	raw, _, _ := r.Result(st.ID)
	var cut api.SegmentResult
	if err := json.Unmarshal(raw, &cut); err != nil {
		t.Fatal(err)
	}
	if cut.MaskRef != "" || cut.Steps == 0 {
		t.Fatalf("cancelled leg: mask_ref %q after %d steps, want no stored mask and partial steps", cut.MaskRef, cut.Steps)
	}
	if got := r.Datasets().List(); len(got) != 1 || got[0].ID != ivt.VolumeRef {
		t.Fatalf("store after the cancelled leg holds %+v, want the field %s alone", got, ivt.VolumeRef)
	}
	enc, err := r.Datasets().GetBytes(ivt.VolumeRef)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataset.ID(enc); got != ivt.VolumeRef {
		t.Fatalf("field %s now hashes to %s", ivt.VolumeRef, got)
	}
	var again api.IVTResult
	if err := json.Unmarshal(runJob(t, r, ivtReq), &again); err != nil {
		t.Fatal(err)
	}
	if again.VolumeRef != ivt.VolumeRef || len(r.Datasets().List()) != 1 {
		t.Fatalf("re-run ivt job stored %s (%d datasets), want the field %s again", again.VolumeRef, len(r.Datasets().List()), ivt.VolumeRef)
	}

	var seg api.SegmentResult
	if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source:     api.VolumeSource{Ref: ivt.VolumeRef},
		Net:        net,
		Seeds:      [][3]int{{15, 16, 24}},
		MaxSteps:   8,
		ReturnMask: true,
	}}), &seg); err != nil {
		t.Fatal(err)
	}
	if seg.MaskRef == "" || seg.Steps == 0 {
		t.Fatalf("segment leg after the cancel: mask_ref %q after %d steps", seg.MaskRef, seg.Steps)
	}
	var lab api.LabelResult
	if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source: api.VolumeSource{Ref: seg.MaskRef}, Threshold: 0.5,
	}}), &lab); err != nil {
		t.Fatal(err)
	}
	if lab.TotalVoxels != seg.MaskVoxels {
		t.Fatalf("label leg found %d voxels in objects, the mask has %d", lab.TotalVoxels, seg.MaskVoxels)
	}
}

// bench64Volume builds the 64^3 volume the submit-path benchmarks ship.
func bench64Volume() (int, int, int, []float32) {
	const n = 64
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(i%251) * 0.7
	}
	return n, n, n, data
}

// benchSegmentSpec is a segmentation job tuned so the submit path, not the
// kernel, dominates: one seed, one network application.
func benchSegmentSpec(src api.VolumeSource) *api.SegmentSpec {
	return &api.SegmentSpec{
		Source:     src,
		Seeds:      [][3]int{{32, 32, 32}},
		MaxSteps:   1,
		ReturnMask: true,
	}
}

// submitAndMeasure posts a job, waits for it, fetches the result, and
// returns the total bytes that crossed the gateway (request + both response
// bodies) plus the decoded result.
func submitAndMeasure(b testing.TB, srv string, runner *Runner, req *api.JobRequest) (int64, api.SegmentResult) {
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	wire := int64(len(body))
	resp, err := http.Post(srv+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	wire += int64(len(ack))
	var sub api.SubmitResponse
	if err := json.Unmarshal(ack, &sub); err != nil || sub.ID == "" {
		b.Fatalf("submit failed: %s", ack)
	}
	for {
		st, ok := runner.Status(sub.ID)
		if !ok {
			b.Fatalf("job %s vanished", sub.ID)
		}
		if st.State.Terminal() {
			if st.State != api.StateSucceeded {
				b.Fatalf("job %s: %s (%s)", sub.ID, st.State, st.Error)
			}
			break
		}
	}
	resp, err = http.Get(srv + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		b.Fatal(err)
	}
	envRaw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	wire += int64(len(envRaw))
	var env api.ResultEnvelope
	if err := json.Unmarshal(envRaw, &env); err != nil {
		b.Fatal(err)
	}
	var res api.SegmentResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		b.Fatal(err)
	}
	return wire, res
}

// BenchmarkJobSubmitInline is the old data plane: a 64^3 volume rides every
// submit as JSON text and the mask rides the result. The wire-bytes metric
// is the quantity BenchmarkJobSubmitRef divides.
func BenchmarkJobSubmitInline(b *testing.B) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer runner.Close()
	srv := httptest.NewServer(NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1}))
	defer srv.Close()
	d, h, w, data := bench64Volume()
	req := &api.JobRequest{Kind: api.KindSegment, Segment: benchSegmentSpec(api.VolumeSource{D: d, H: h, W: w, Data: data})}
	var wire int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, _ = submitAndMeasure(b, srv.URL, runner, req)
	}
	b.ReportMetric(float64(wire), "wire-bytes/op")
}

// BenchmarkJobSubmitRef is the refactored data plane: the volume is
// uploaded once (untimed), and every submit moves a 64-hex ref in and a
// mask ref out. The acceptance bar is >= 5x fewer gateway bytes than
// inline for the same 64^3 job; in practice it is orders of magnitude.
func BenchmarkJobSubmitRef(b *testing.B) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer runner.Close()
	srv := httptest.NewServer(NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1}))
	defer srv.Close()
	d, h, w, data := bench64Volume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		b.Fatal(err)
	}
	info, err := runner.Datasets().Put(enc, "")
	if err != nil {
		b.Fatal(err)
	}
	req := &api.JobRequest{
		Kind:       api.KindSegment,
		ResultMode: api.ResultModeRef,
		Segment:    benchSegmentSpec(api.VolumeSource{Ref: info.ID}),
	}
	var wire int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, _ = submitAndMeasure(b, srv.URL, runner, req)
	}
	b.ReportMetric(float64(wire), "wire-bytes/op")
}

// TestRefSubmitWireBytesRatio pins the acceptance criterion in plain `go
// test`: for a 64^3 volume, submitting by ref moves >= 5x fewer bytes
// through the HTTP gateway than submitting inline, with identical results.
func TestRefSubmitWireBytesRatio(t *testing.T) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer runner.Close()
	srv := httptest.NewServer(NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1}))
	defer srv.Close()
	d, h, w, data := bench64Volume()

	inlineWire, inlineRes := submitAndMeasure(t, srv.URL, runner, &api.JobRequest{
		Kind:    api.KindSegment,
		Segment: benchSegmentSpec(api.VolumeSource{D: d, H: h, W: w, Data: data}),
	})

	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := runner.Datasets().Put(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	refWire, refRes := submitAndMeasure(t, srv.URL, runner, &api.JobRequest{
		Kind:       api.KindSegment,
		ResultMode: api.ResultModeRef,
		Segment:    benchSegmentSpec(api.VolumeSource{Ref: info.ID}),
	})

	if inlineRes.Steps != refRes.Steps || inlineRes.MaskVoxels != refRes.MaskVoxels {
		t.Fatalf("results diverge: inline %+v vs ref %+v", inlineRes, refRes)
	}
	ratio := float64(inlineWire) / float64(refWire)
	t.Logf("wire bytes: inline %d, ref %d (%.0fx)", inlineWire, refWire, ratio)
	if ratio < 5 {
		t.Fatalf("ref submit moved only %.1fx fewer gateway bytes, want >= 5x", ratio)
	}
}

// TestGatewayDatasetDeleteDropsClaims: DELETE removes the caller's claim;
// the bytes go away when the last claim drops, and a running job's pin
// defers (but does not lose) the reclamation.
func TestGatewayDatasetDeleteDropsClaims(t *testing.T) {
	f := newGWFixture(t, false)
	login := func(user string) string {
		var out struct {
			Token string `json:"token"`
		}
		if resp := f.do("POST", "/v1/login", map[string]string{"user": user}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("login %s: status %d", user, resp.StatusCode)
		}
		return out.Token
	}
	alice, bob := login("alice@ucsd.edu"), login("bob@sdsc.edu")

	d, h, w, data := testIVTField(1)
	enc, _ := dataset.EncodeVolume(d, h, w, data)
	f.token = alice
	info := f.putDataset(enc)
	f.token = bob
	f.putDataset(enc) // bob becomes co-owner

	// Alice drops her claim: dataset survives on bob's.
	f.token = alice
	var reply struct {
		Deleted bool `json:"deleted"`
	}
	if resp := f.do("DELETE", "/v1/datasets/"+info.ID, nil, &reply); resp.StatusCode != http.StatusOK || reply.Deleted {
		t.Fatalf("alice drop: status %d deleted=%v, want 200 + retained", resp.StatusCode, reply.Deleted)
	}
	// Alice no longer sees it (same 404 as missing).
	if resp := f.do("GET", "/v1/datasets/"+info.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("alice GET after drop: status %d, want 404", resp.StatusCode)
	}
	f.token = bob
	if got := f.getDataset(info.ID); !bytes.Equal(got, enc) {
		t.Fatal("bob lost access when alice dropped her claim")
	}
	// Bob drops the last claim: bytes reclaimed.
	if resp := f.do("DELETE", "/v1/datasets/"+info.ID, nil, &reply); resp.StatusCode != http.StatusOK || !reply.Deleted {
		t.Fatalf("bob drop: status %d deleted=%v, want 200 + deleted", resp.StatusCode, reply.Deleted)
	}
	if _, ok := f.runner.Datasets().Stat(info.ID); ok {
		t.Fatal("dataset bytes survive after the last claim dropped")
	}
	// Double-delete and foreign delete are the same 404.
	if resp := f.do("DELETE", "/v1/datasets/"+info.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitPinsSourceRefs: a ref accepted at submit stays resolvable
// until the job runs, even if every ownership claim is dropped in between.
func TestSubmitPinsSourceRefs(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	reg.Register(api.KindLabel, func(jc *JobContext) (any, error) {
		<-release
		return LabelHandler(jc)
	})
	r := NewRunnerConfigured(reg, nil, RunnerConfig{Workers: 1})
	defer r.Close()

	d, h, w, data := testIVTField(1)
	enc, _ := dataset.EncodeVolume(d, h, w, data)
	info, err := r.Datasets().Put(enc, "alice")
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Submit(&api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source: api.VolumeSource{Ref: info.ID}, Threshold: 120,
	}}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// The only claim is dropped while the job is queued/blocked; the
	// submit-time pin defers the reclamation.
	if !r.Datasets().Drop(info.ID, "alice") {
		t.Fatal("drop failed")
	}
	close(release)
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
	}
	// With the job done, the deferred delete has fired.
	if _, ok := r.Datasets().Stat(info.ID); ok {
		t.Fatal("dropped dataset survives after its last pin released")
	}
}

// newUploadGateway is an anonymous gateway driven in process, for the
// upload tests that hand ServeHTTP requests no client would send.
func newUploadGateway(t testing.TB) (*Gateway, *Runner) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 1})
	t.Cleanup(runner.Close)
	return NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1}), runner
}

// countingZeros is a body of n zero bytes that counts what is read from it.
type countingZeros struct{ n, read int64 }

func (c *countingZeros) Read(p []byte) (int, error) {
	if c.read >= c.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), c.n-c.read)
	clear(p[:k])
	c.read += k
	return int(k), nil
}

// TestGatewayDatasetPutAtWrongIDStoresNothing: a PUT whose path id is not
// the content's hash stores nothing, and its 400 names the real id.
func TestGatewayDatasetPutAtWrongIDStoresNothing(t *testing.T) {
	f := newGWFixture(t, true)
	d, h, w, data := testIVTField(1)
	enc, _ := dataset.EncodeVolume(d, h, w, data)
	id := dataset.ID(enc)
	req, _ := http.NewRequest("PUT", f.srv.URL+"/v1/datasets/"+strings.Repeat("ab", 32), bytes.NewReader(enc))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reply api.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, id) {
		t.Fatalf("PUT at a wrong id: status %d %q, want 400 naming %s", resp.StatusCode, reply.Error, id)
	}
	if _, ok := f.runner.Datasets().Stat(id); ok {
		t.Fatal("a PUT at a wrong id stored the content")
	}
	var list []dataset.Info
	if f.do("GET", "/v1/datasets", nil, &list); len(list) != 0 {
		t.Fatalf("listing after a refused PUT: %+v", list)
	}
}

// TestGatewayDatasetDeclaredOversizeIs413: an upload that declares more
// than the codec's maximum is refused before its body is read.
func TestGatewayDatasetDeclaredOversizeIs413(t *testing.T) {
	gw, runner := newUploadGateway(t)
	for _, up := range []struct{ method, target string }{
		{"POST", "/v1/datasets"},
		{"PUT", "/v1/datasets/" + strings.Repeat("ab", 32)},
	} {
		body := &countingZeros{n: 64 << 10}
		req := httptest.NewRequest(up.method, up.target, body)
		req.ContentLength = 300 << 20
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || body.read >= 64<<10 {
			t.Fatalf("%s declaring 300 MB: status %d after reading %d bytes, want 413 before the body", up.method, rec.Code, body.read)
		}
	}
	if n := len(runner.Datasets().List()); n != 0 {
		t.Fatalf("an oversize upload stored %d datasets", n)
	}
}

// TestGatewayDatasetUploadBodies: a body's length is the client's to
// declare or not. A chunked upload and one past the preallocation bound
// round-trip; a short body is the client's 400; a chunked body past the cap
// is a 413.
func TestGatewayDatasetUploadBodies(t *testing.T) {
	f := newGWFixture(t, true)
	d, h, w, data := testIVTField(2)
	enc, _ := dataset.EncodeVolume(d, h, w, data)

	// No Content-Length: the client sends the body chunked.
	req, _ := http.NewRequest("PUT", f.srv.URL+"/v1/datasets/"+dataset.ID(enc), struct{ io.Reader }{bytes.NewReader(enc)})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked PUT: status %d", resp.StatusCode)
	}
	if back := f.getDataset(dataset.ID(enc)); !bytes.Equal(back, enc) {
		t.Fatal("a chunked upload came back different")
	}

	gw, runner := newUploadGateway(t)
	serve := func(method, target string, body io.Reader, length int64) int {
		req := httptest.NewRequest(method, target, body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		return rec.Code
	}
	// Past uploadPrealloc the buffer grows as the declared bytes arrive.
	big := make([]float32, (uploadPrealloc+1<<20)/4)
	for i := range big {
		big[i] = float32(i % 977)
	}
	bigEnc, _ := dataset.EncodeVolume(1, 1, len(big), big)
	if code := serve("POST", "/v1/datasets", bytes.NewReader(bigEnc), int64(len(bigEnc))); code != http.StatusCreated {
		t.Fatalf("%d-byte upload: status %d", len(bigEnc), code)
	}
	if back, err := runner.Datasets().GetBytes(dataset.ID(bigEnc)); err != nil || !bytes.Equal(back, bigEnc) {
		t.Fatalf("%d-byte upload came back different (%v)", len(bigEnc), err)
	}
	// Declared longer than sent: a broken body, not a size problem.
	if code := serve("POST", "/v1/datasets", bytes.NewReader(enc[:10]), int64(len(enc))); code != http.StatusBadRequest {
		t.Fatalf("short body: status %d, want 400", code)
	}
	// Chunked past the cap. The gateway buffers the cap's 256 MB before it
	// knows, and the race detector would shadow all of it.
	if raceEnabled {
		return
	}
	if code := serve("POST", "/v1/datasets", &countingZeros{n: dataset.MaxEncodedBytes + 1}, -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body past the cap: status %d, want 413", code)
	}
	if n := len(runner.Datasets().List()); n != 1 {
		t.Fatalf("store holds %d datasets, want the one upload", n)
	}
}

// TestReadDatasetBodyPreallocIsBounded: a declared length sizes the buffer
// only up to uploadPrealloc, so declaring 200 MB and sending ten bytes
// costs at most that bound.
func TestReadDatasetBodyPreallocIsBounded(t *testing.T) {
	req := httptest.NewRequest("POST", "/v1/datasets", strings.NewReader("0123456789"))
	req.ContentLength = 200 << 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := readDatasetBody(httptest.NewRecorder(), req)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a body 200 MB short of its declaration read cleanly")
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 17<<20 {
		t.Fatalf("declaring 200 MB and sending 10 bytes allocated %d bytes, want <= 17 MiB", got)
	}
}

// putRequests builds n in-process PUTs of enc at its own id.
func putRequests(enc []byte, n int) []*http.Request {
	target := "/v1/datasets/" + dataset.ID(enc)
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("PUT", target, bytes.NewReader(enc))
	}
	return reqs
}

// bench64Encoding is bench64Volume's encoding: a 1 MiB upload.
func bench64Encoding(t testing.TB) []byte {
	d, h, w, data := bench64Volume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestDatasetPutAllocBound pins an upload's allocation diet the way
// TestJobAllocBounds pins a job's: an idempotent 1 MiB PUT, in process,
// allocates the one buffer its body is read into, plus the reply
// (1.06 MB; 5.2 MB while the body grew by appends and was hashed twice).
func TestDatasetPutAllocBound(t *testing.T) {
	t.Run("dataset_put_1mib", func(t *testing.T) {
		gw, _ := newUploadGateway(t)
		enc := bench64Encoding(t)
		const puts = 16
		reqs := putRequests(enc, puts+1)
		var m0, m1 runtime.MemStats
		for i, req := range reqs {
			if i == 1 {
				runtime.ReadMemStats(&m0)
			}
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("PUT %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
		runtime.ReadMemStats(&m1)
		perPut := int(m1.TotalAlloc-m0.TotalAlloc) / puts
		t.Logf("idempotent %d-byte PUT: %d bytes allocated", len(enc), perPut)
		if perPut > 1300<<10 {
			t.Fatalf("a 1 MiB PUT allocates %d bytes, want <= 1.3 MB", perPut)
		}
	})
}

// BenchmarkDatasetPut times the upload layer outside bench/: an idempotent
// 1 MiB PUT through the gateway in process — read, hash, register.
func BenchmarkDatasetPut(b *testing.B) {
	gw, _ := newUploadGateway(b)
	enc := bench64Encoding(b)
	gw.ServeHTTP(httptest.NewRecorder(), putRequests(enc, 1)[0])
	reqs := putRequests(enc, b.N)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
