// Package workload defines the twelve DirectX application profiles of
// Table 1 and the 52-frame evaluation suite. Since the commercial game
// traces the paper captured are unavailable, each profile parameterizes
// the synthetic rendering pipeline (internal/pipeline) to reproduce the
// application's structural characteristics: resolution, DirectX version
// (tessellation-era geometry density), multi-pass structure (shadow and
// environment pre-passes, geometry passes, post-processing chains),
// depth complexity, blending and stencil usage, texture pool size, and —
// most importantly for the paper's thesis — the intensity of dynamic
// texturing (render-to-texture) that produces inter-stream RT-to-sampler
// reuse in the LLC.
package workload

import (
	"fmt"

	"gspc/internal/pipeline"
)

// Profile describes one DirectX application.
type Profile struct {
	// Name and Abbrev follow Table 1.
	Name   string
	Abbrev string
	// DirectX is the API version (10 or 11).
	DirectX int
	// Width and Height are the frame resolution at full scale.
	Width, Height int
	// Frames is the number of frames the application contributes to the
	// 52-frame suite.
	Frames int

	// Pass structure.
	ShadowPasses int // depth-as-color pre-passes (shadow maps)
	EnvPasses    int // reduced-resolution environment/reflection passes
	GeomPasses   int // main scene geometry passes
	PostPasses   int // full-screen post-processing passes
	DeferredMRT  int // extra simultaneous render targets (deferred G-buffer)

	// Geometry.
	DrawsPerGeomPass int
	MeshTris         int     // triangles per draw at full scale
	VertexCount      int     // vertices per mesh at full scale
	DepthComplexity  float64 // summed draw coverage per geometry pass
	ZPassRate        float64
	HiZRejectRate    float64

	// Shading.
	TexturesPerDraw    int
	TrilinearFraction  float64
	BlendFraction      float64 // fraction of geometry draws that blend
	StencilPassFrac    float64 // fraction of geometry passes using stencil
	StaticTexCount     int
	StaticTexSize      int     // level-0 dimension at full scale
	DynamicTexFraction float64 // prob. a geometry draw samples a dynamic RT
	SceneReadFraction  float64 // prob. a geometry draw reads back the scene color (refraction, distortion, soft particles)
	PostChainTextures  int     // dynamic textures sampled per post pass

	// Offscreen surfaces.
	ShadowMapSize int     // full-scale shadow map dimension
	EnvMapScale   float64 // environment RT size relative to the frame
}

// String renders "name (WxH, DX v)".
func (p Profile) String() string {
	return fmt.Sprintf("%s (%dx%d, DX%d)", p.Abbrev, p.Width, p.Height, p.DirectX)
}

// Profiles returns the twelve applications of Table 1 in paper order.
// Frame counts sum to 52.
func Profiles() []Profile {
	return []Profile{
		{
			// Heavy post-processing benchmark scene: long full-screen
			// chains over an offscreen HDR target.
			Name: "3D Mark Vantage GT1", Abbrev: "3DMarkVAGT1", DirectX: 10,
			Width: 1920, Height: 1200, Frames: 5,
			ShadowPasses: 2, EnvPasses: 1, GeomPasses: 2, PostPasses: 3,
			DrawsPerGeomPass: 10, MeshTris: 3000, VertexCount: 2500,
			DepthComplexity: 2.2, ZPassRate: 0.62, HiZRejectRate: 0.12,
			TexturesPerDraw: 2, TrilinearFraction: 0.3, BlendFraction: 0.25,
			StencilPassFrac: 0, StaticTexCount: 36, StaticTexSize: 2048,
			DynamicTexFraction: 0.59, SceneReadFraction: 0.20, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			Name: "3D Mark Vantage GT2", Abbrev: "3DMarkVAGT2", DirectX: 10,
			Width: 1920, Height: 1200, Frames: 4,
			ShadowPasses: 3, EnvPasses: 0, GeomPasses: 3, PostPasses: 2,
			DrawsPerGeomPass: 12, MeshTris: 3500, VertexCount: 2800,
			DepthComplexity: 2.5, ZPassRate: 0.58, HiZRejectRate: 0.15,
			TexturesPerDraw: 2, TrilinearFraction: 0.35, BlendFraction: 0.3,
			StencilPassFrac: 0.3, StaticTexCount: 42, StaticTexSize: 2048,
			DynamicTexFraction: 0.52, SceneReadFraction: 0.20, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			// The paper's biggest GSPC winner: very high render-target-
			// to-texture consumption (~90% potential, Fig. 6).
			Name: "Assassin's Creed", Abbrev: "AssnCreed", DirectX: 10,
			Width: 1680, Height: 1050, Frames: 5,
			ShadowPasses: 4, EnvPasses: 1, GeomPasses: 2, PostPasses: 4,
			DrawsPerGeomPass: 9, MeshTris: 2500, VertexCount: 2000,
			DepthComplexity: 2.0, ZPassRate: 0.66, HiZRejectRate: 0.1,
			TexturesPerDraw: 2, TrilinearFraction: 0.25, BlendFraction: 0.2,
			StencilPassFrac: 0, StaticTexCount: 24, StaticTexSize: 1024,
			DynamicTexFraction: 0.60, SceneReadFraction: 0.32, PostChainTextures: 3,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			Name: "BioShock", Abbrev: "BioShock", DirectX: 10,
			Width: 1920, Height: 1200, Frames: 4,
			ShadowPasses: 2, EnvPasses: 0, GeomPasses: 2, PostPasses: 2,
			DrawsPerGeomPass: 11, MeshTris: 2800, VertexCount: 2300,
			DepthComplexity: 2.6, ZPassRate: 0.55, HiZRejectRate: 0.12,
			TexturesPerDraw: 2, TrilinearFraction: 0.3, BlendFraction: 0.45,
			StencilPassFrac: 0.5, StaticTexCount: 36, StaticTexSize: 2048,
			DynamicTexFraction: 0.45, SceneReadFraction: 0.25, PostChainTextures: 2,
			ShadowMapSize: 512, EnvMapScale: 0.4,
		},
		{
			// High depth complexity action scene with heavy overdraw.
			Name: "Devil May Cry 4", Abbrev: "DMC", DirectX: 10,
			Width: 1680, Height: 1050, Frames: 4,
			ShadowPasses: 2, EnvPasses: 0, GeomPasses: 3, PostPasses: 2,
			DrawsPerGeomPass: 12, MeshTris: 3200, VertexCount: 2600,
			DepthComplexity: 3.2, ZPassRate: 0.5, HiZRejectRate: 0.2,
			TexturesPerDraw: 2, TrilinearFraction: 0.25, BlendFraction: 0.4,
			StencilPassFrac: 0.3, StaticTexCount: 30, StaticTexSize: 2048,
			DynamicTexFraction: 0.39, SceneReadFraction: 0.22, PostChainTextures: 1,
			ShadowMapSize: 512, EnvMapScale: 0.4,
		},
		{
			// Strategy title: vast terrain textures, many small draws.
			Name: "Civilization V", Abbrev: "Civilization", DirectX: 11,
			Width: 1920, Height: 1200, Frames: 5,
			ShadowPasses: 2, EnvPasses: 0, GeomPasses: 2, PostPasses: 2,
			DrawsPerGeomPass: 16, MeshTris: 4200, VertexCount: 3400,
			DepthComplexity: 1.8, ZPassRate: 0.75, HiZRejectRate: 0.08,
			TexturesPerDraw: 3, TrilinearFraction: 0.4, BlendFraction: 0.25,
			StencilPassFrac: 0, StaticTexCount: 54, StaticTexSize: 4096,
			DynamicTexFraction: 0.52, SceneReadFraction: 0.17, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			// Racing title with mirror/reflection passes and motion blur.
			Name: "Dirt 2", Abbrev: "Dirt", DirectX: 11,
			Width: 1680, Height: 1050, Frames: 4,
			ShadowPasses: 2, EnvPasses: 2, GeomPasses: 2, PostPasses: 3,
			DrawsPerGeomPass: 10, MeshTris: 3600, VertexCount: 3000,
			DepthComplexity: 2.0, ZPassRate: 0.7, HiZRejectRate: 0.1,
			TexturesPerDraw: 2, TrilinearFraction: 0.45, BlendFraction: 0.3,
			StencilPassFrac: 0, StaticTexCount: 36, StaticTexSize: 2048,
			DynamicTexFraction: 0.65, SceneReadFraction: 0.25, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.6,
		},
		{
			// Flight title: huge anisotropically-sampled terrain.
			Name: "HAWX 2", Abbrev: "HAWX", DirectX: 11,
			Width: 1920, Height: 1200, Frames: 4,
			ShadowPasses: 0, EnvPasses: 0, GeomPasses: 2, PostPasses: 2,
			DrawsPerGeomPass: 8, MeshTris: 5000, VertexCount: 4200,
			DepthComplexity: 1.6, ZPassRate: 0.82, HiZRejectRate: 0.05,
			TexturesPerDraw: 3, TrilinearFraction: 0.6, BlendFraction: 0.15,
			StencilPassFrac: 0, StaticTexCount: 60, StaticTexSize: 4096,
			DynamicTexFraction: 0.39, SceneReadFraction: 0.14, PostChainTextures: 2,
			ShadowMapSize: 512, EnvMapScale: 0.4,
		},
		{
			// Tessellation-heavy benchmark at the highest resolution.
			Name: "Unigine Heaven 2.1", Abbrev: "Heaven", DirectX: 11,
			Width: 2560, Height: 1600, Frames: 5,
			ShadowPasses: 2, EnvPasses: 0, GeomPasses: 3, PostPasses: 2,
			DrawsPerGeomPass: 12, MeshTris: 8000, VertexCount: 6500,
			DepthComplexity: 2.4, ZPassRate: 0.6, HiZRejectRate: 0.15,
			TexturesPerDraw: 2, TrilinearFraction: 0.4, BlendFraction: 0.2,
			StencilPassFrac: 0, StaticTexCount: 42, StaticTexSize: 2048,
			DynamicTexFraction: 0.45, SceneReadFraction: 0.20, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			// Particle-heavy shooter: much alpha blending.
			Name: "Lost Planet 2", Abbrev: "LostPlanet", DirectX: 11,
			Width: 1920, Height: 1200, Frames: 4,
			ShadowPasses: 2, EnvPasses: 0, GeomPasses: 3, PostPasses: 2,
			DrawsPerGeomPass: 11, MeshTris: 3800, VertexCount: 3100,
			DepthComplexity: 2.8, ZPassRate: 0.52, HiZRejectRate: 0.18,
			TexturesPerDraw: 2, TrilinearFraction: 0.3, BlendFraction: 0.55,
			StencilPassFrac: 0.3, StaticTexCount: 36, StaticTexSize: 2048,
			DynamicTexFraction: 0.52, SceneReadFraction: 0.28, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.4,
		},
		{
			// Deferred renderer: G-buffer MRT pass plus lighting passes
			// that consume the G-buffer as textures.
			Name: "Stalker COP", Abbrev: "StalkerCOP", DirectX: 11,
			Width: 1680, Height: 1050, Frames: 4,
			ShadowPasses: 3, EnvPasses: 0, GeomPasses: 2, PostPasses: 3,
			DeferredMRT:      2,
			DrawsPerGeomPass: 10, MeshTris: 3000, VertexCount: 2500,
			DepthComplexity: 2.2, ZPassRate: 0.6, HiZRejectRate: 0.12,
			TexturesPerDraw: 2, TrilinearFraction: 0.3, BlendFraction: 0.25,
			StencilPassFrac: 0.5, StaticTexCount: 36, StaticTexSize: 2048,
			DynamicTexFraction: 0.78, SceneReadFraction: 0.28, PostChainTextures: 3,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
		{
			Name: "Unigine 3D engine", Abbrev: "Unigine", DirectX: 11,
			Width: 1920, Height: 1200, Frames: 4,
			ShadowPasses: 2, EnvPasses: 1, GeomPasses: 2, PostPasses: 2,
			DrawsPerGeomPass: 10, MeshTris: 4500, VertexCount: 3700,
			DepthComplexity: 2.1, ZPassRate: 0.65, HiZRejectRate: 0.1,
			TexturesPerDraw: 2, TrilinearFraction: 0.35, BlendFraction: 0.25,
			StencilPassFrac: 0, StaticTexCount: 42, StaticTexSize: 2048,
			DynamicTexFraction: 0.59, SceneReadFraction: 0.22, PostChainTextures: 2,
			ShadowMapSize: 1024, EnvMapScale: 0.5,
		},
	}
}

// profiles is the suite built once: ProfileByAbbrev runs on every
// request validation and must not rebuild the table per call. Profiles
// keeps handing each caller a fresh copy.
var profiles = Profiles()

// ProfileByAbbrev finds a profile by its abbreviated name.
func ProfileByAbbrev(abbrev string) (Profile, bool) {
	for _, p := range profiles {
		if p.Abbrev == abbrev {
			return p, true
		}
	}
	return Profile{}, false
}

// FrameJob identifies one frame of the evaluation suite.
type FrameJob struct {
	App   Profile
	Index int // frame index within the application
}

// ID renders e.g. "AssnCreed/2".
func (j FrameJob) ID() string { return fmt.Sprintf("%s/%d", j.App.Abbrev, j.Index) }

// Seed returns the deterministic seed for the job's frame.
func (j FrameJob) Seed() uint64 {
	return hashString(j.App.Abbrev) ^ (uint64(j.Index+1) * 0x9e3779b97f4a7c15)
}

// Suite returns the full 52-frame suite in application order.
func Suite() []FrameJob {
	var jobs []FrameJob
	for _, p := range Profiles() {
		for i := 0; i < p.Frames; i++ {
			jobs = append(jobs, FrameJob{App: p, Index: i})
		}
	}
	return jobs
}

// Build constructs the pipeline frame for this job at the given linear
// scale (1.0 = the paper's full resolution).
func (j FrameJob) Build(scale float64) *pipeline.Frame {
	return j.App.BuildFrame(j.Index, scale)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
