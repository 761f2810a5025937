// Package datagen generates the synthetic stand-ins for the data sets used in
// the paper's evaluation (Section 4.1). The originals — the ALOI k5 image
// collection, five UCI data sets and the Zyeast gene-expression data — are
// not redistributable inside this offline module, so each generator
// reproduces the *shape* that matters for the experiments: number of objects,
// dimensionality, number of classes, class-size skew, and the geometric
// character that determines which clustering paradigm can succeed
// (compact-vs-elongated classes, overlap, noise). EXPERIMENTS.md lists each
// substitution.
//
// Every generator takes an explicit seed and is fully deterministic.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// classSpec describes one Gaussian class of a blob mixture.
type classSpec struct {
	n      int       // number of points
	center []float64 // class mean
	scale  []float64 // per-dimension standard deviation
}

// blobs samples a labeled mixture of axis-aligned Gaussian classes.
func blobs(name string, r *rand.Rand, specs []classSpec) *dataset.Dataset {
	var x [][]float64
	var y []int
	for label, s := range specs {
		for i := 0; i < s.n; i++ {
			p := make([]float64, len(s.center))
			for j := range p {
				p[j] = s.center[j] + s.scale[j]*r.NormFloat64()
			}
			x = append(x, p)
			y = append(y, label)
		}
	}
	shuffle(r, x, y)
	return dataset.MustNew(name, x, y)
}

// shuffle applies one permutation to x and y jointly so that object order
// carries no class information (fold splitting must not be accidentally
// stratified).
func shuffle(r *rand.Rand, x [][]float64, y []int) {
	r.Shuffle(len(x), func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
}

// randomUnit returns a uniformly random point on the unit sphere in dim
// dimensions.
func randomUnit(r *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var norm float64
	for {
		norm = 0
		for j := range v {
			v[j] = r.NormFloat64()
			norm += v[j] * v[j]
		}
		if norm > 1e-12 {
			break
		}
	}
	norm = math.Sqrt(norm)
	for j := range v {
		v[j] /= norm
	}
	return v
}

// ALOI returns the surrogate for the paper's "k5" ALOI image collection:
// a slice of sets datasets, each with 5 classes × 25 objects in 144
// dimensions (colour-moment descriptors in the original). Classes are
// Gaussian cores around moderately separated random centers, with two
// ingredients that give image-descriptor data its parameter sensitivity:
// every class has a sparse halo (a fraction of points drawn at ~3× the core
// scale, like off-angle shots of an object), and one designated pair of
// classes sits closer than the rest (visually similar objects). Low MinPts
// then over-chains through halo points while a MinPts near the class size
// dissolves classes, so the MinPts range genuinely needs selecting — the
// regime of the paper's Figures 5 and 9. The paper uses sets = 100.
func ALOI(seed int64, sets int) []*dataset.Dataset {
	out := make([]*dataset.Dataset, sets)
	for s := 0; s < sets; s++ {
		out[s] = aloiSet(stats.SplitSeed(seed, s), fmt.Sprintf("aloi-k5-%03d", s))
	}
	return out
}

// aloiSet generates one ALOI-like dataset. Colour-moment descriptors are
// highly correlated, so the 144 ambient attributes carry a low intrinsic
// dimension; the generator therefore samples the class structure in a
// 6-dimensional latent space — where density estimation genuinely depends
// on MinPts — and embeds it into 144 dimensions through a random linear map
// plus small ambient noise.
func aloiSet(seed int64, name string) *dataset.Dataset {
	r := stats.NewRand(seed)
	const (
		dim     = 144
		latent  = 6
		classes = 5
		perCls  = 25
	)
	// Latent class centers: moderate separation, with class 1 pulled
	// toward class 0 (a visually similar object pair).
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = randomUnit(r, latent)
		sep := (3.3 + 1.3*r.Float64()) * math.Sqrt(latent) / math.Sqrt(2)
		for j := range centers[c] {
			centers[c][j] *= sep
		}
	}
	// The close pair overlaps enough that unsupervised validity indices
	// (Silhouette) prefer merging it, while cannot-link supervision still
	// separates it — the paper's CVCP-vs-Silhouette gap on ALOI.
	mix := 0.30 + 0.12*r.Float64()
	for j := range centers[1] {
		centers[1][j] = mix*centers[1][j] + (1-mix)*centers[0][j]
	}

	z := make([][]float64, 0, classes*perCls)
	var y []int
	for c := 0; c < classes; c++ {
		base := 0.8 + 0.5*r.Float64()
		// The last few points of classes 0 and 1 form a sparse bridge
		// between the close pair: intermediate poses that chain the two
		// classes together under small MinPts.
		bridge := 0
		if c <= 1 {
			bridge = 3
		}
		for i := 0; i < perCls; i++ {
			p := make([]float64, latent)
			if i >= perCls-bridge {
				t := (float64(i-(perCls-bridge)) + 1) / (float64(bridge) + 1)
				if c == 1 {
					t = 1 - t
				}
				for j := range p {
					p[j] = (1-t)*centers[0][j] + t*centers[1][j] + 0.3*base*r.NormFloat64()
				}
			} else {
				mult := 1.0
				if r.Float64() < 0.16 {
					mult = 2.4 // sparse halo point (off-angle shot)
				}
				for j := range p {
					p[j] = centers[c][j] + mult*base*r.NormFloat64()
				}
			}
			z = append(z, p)
			y = append(y, c)
		}
	}

	// Random embedding: each latent axis maps to a unit direction in the
	// ambient space; directions are near-orthogonal at dim=144.
	basis := make([][]float64, latent)
	for j := range basis {
		basis[j] = randomUnit(r, dim)
	}
	x := make([][]float64, len(z))
	for i, p := range z {
		row := make([]float64, dim)
		for j, v := range p {
			for a := 0; a < dim; a++ {
				row[a] += v * basis[j][a]
			}
		}
		for a := 0; a < dim; a++ {
			row[a] += 0.04 * r.NormFloat64()
		}
		x[i] = row
	}
	shuffle(r, x, y)
	return dataset.MustNew(name, x, y)
}

// Iris returns the surrogate for UCI Iris: 150 objects, 4 attributes,
// 3 classes of 50. One class is well separated (setosa); the other two
// overlap (versicolor/virginica), which is why label structure and cluster
// structure disagree for partitional methods at some parameter settings.
func Iris(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	specs := []classSpec{
		{n: 50, center: []float64{-6, -4, 0, 0}, scale: []float64{0.5, 0.5, 0.4, 0.4}},
		{n: 50, center: []float64{0.0, 0.3, 0, 0}, scale: []float64{0.8, 0.8, 0.7, 0.7}},
		{n: 50, center: []float64{0.9, 1.1, 0.6, 0.6}, scale: []float64{0.9, 0.9, 0.8, 0.8}},
	}
	return blobs("iris", r, specs)
}

// Wine returns the surrogate for UCI Wine: 178 objects, 13 attributes,
// 3 ellipsoidal classes (59/71/48) with unequal per-class scales, roughly
// separable after standardization as the real chemical-analysis data is.
func Wine(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	dim := 13
	mkScale := func(sc float64) []float64 {
		scale := make([]float64, dim)
		for j := range scale {
			scale[j] = sc * (0.5 + r.Float64())
		}
		return scale
	}
	// The real Wine data overlaps heavily (the paper's F-measures on Wine
	// are its lowest), and its dominant geometric split does not follow the
	// three cultivars: classes 0 and 2 form one loose super-group far from
	// class 1, so an unsupervised validity index prefers a 2-cluster
	// solution while the labels need 3.
	u := randomUnit(r, dim)
	far := 1.5 * math.Sqrt(float64(dim))
	near := 0.55 * math.Sqrt(float64(dim))
	v := randomUnit(r, dim)
	c0 := make([]float64, dim)
	c1 := make([]float64, dim)
	c2 := make([]float64, dim)
	for j := 0; j < dim; j++ {
		c1[j] = far * u[j]
		c2[j] = near * v[j]
	}
	specs := []classSpec{
		{n: 59, center: c0, scale: mkScale(0.9)},
		{n: 71, center: c1, scale: mkScale(1.2)},
		{n: 48, center: c2, scale: mkScale(0.7)},
	}
	return blobs("wine", r, specs)
}

// Ionosphere returns the surrogate for UCI Ionosphere: 351 objects,
// 34 attributes, 2 classes — 225 "good" returns forming a coherent compact
// class and 126 "bad" returns that are diffuse and multi-modal (three
// scattered sub-modes), as in the radar data where "bad" is a catch-all.
func Ionosphere(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	dim := 34
	good := classSpec{n: 225, center: make([]float64, dim), scale: fill(dim, 0.9)}
	specs := []classSpec{good}
	// Three "bad" sub-modes share label 1; they are diffuse and sit close
	// enough to the "good" class to overlap its fringe, as in the radar
	// data where "bad" returns are a catch-all.
	var x [][]float64
	var y []int
	ds := blobs("ionosphere-good", r, specs)
	x = append(x, ds.X...)
	y = append(y, ds.Y...)
	// Two of the bad sub-modes interpenetrate the good class (radar noise
	// that looks almost like structure); only one is clearly apart.
	seps := []float64{0.55, 0.8, 1.3}
	for m := 0; m < 3; m++ {
		c := randomUnit(r, dim)
		sep := seps[m] * math.Sqrt(float64(dim))
		for j := range c {
			c[j] *= sep
		}
		sub := blobs("ionosphere-bad", r, []classSpec{{n: 42, center: c, scale: fill(dim, 1.1)}})
		x = append(x, sub.X...)
		for range sub.Y {
			y = append(y, 1)
		}
	}
	shuffle(r, x, y)
	return dataset.MustNew("ionosphere", x, y)
}

// Ecoli returns the surrogate for UCI Ecoli: 336 objects, 7 attributes,
// 8 classes with the original highly skewed sizes (143,77,52,35,20,5,2,2).
// Tiny classes make both clustering and constraint sampling hard, which is
// why the paper's Ecoli numbers are its weakest.
func Ecoli(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	dim := 7
	sizes := []int{143, 77, 52, 35, 20, 5, 2, 2}
	specs := make([]classSpec, len(sizes))
	// The eight protein-localization classes form two broad super-groups
	// (inner-membrane-related vs the rest): within a super-group classes
	// overlap, and the super-group split dominates the geometry. Validity
	// indices therefore favour very small k while the labels need k=8.
	pole := randomUnit(r, dim)
	for c, n := range sizes {
		center := randomUnit(r, dim)
		sep := 0.85 * math.Sqrt(float64(dim))
		sign := 1.0
		if c >= 4 {
			sign = -1
		}
		for j := range center {
			center[j] = center[j]*sep + sign*1.1*math.Sqrt(float64(dim))*pole[j]
		}
		specs[c] = classSpec{n: n, center: center, scale: fill(dim, 0.8)}
	}
	return blobs("ecoli", r, specs)
}

// Zyeast returns the surrogate for the Yeast cell-cycle gene-expression data:
// 205 objects (genes), 20 attributes (conditions), 4 classes. Each class is a
// phase-shifted sinusoidal expression profile; a gene is its class profile
// times a random amplitude in [0.6, 2.2] plus noise. Classes are therefore
// elongated rays, not spherical blobs: density-based clustering can follow
// them but k-means cannot. The shape was chosen after the paper's strongly
// negative MPCKmeans correlations on Zyeast, but it does not reproduce
// them: the stand-in's correlations read positive, 0.34 to 0.87 (a known
// deviation, see EXPERIMENTS.md).
func Zyeast(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	const (
		dim     = 20
		classes = 4
	)
	sizes := []int{67, 55, 45, 38} // sums to 205
	var x [][]float64
	var y []int
	for c := 0; c < classes; c++ {
		// Classes are phase-shifted versions of the same cyclic pattern,
		// with small phase offsets: visually similar expression curves.
		phase := math.Pi / 8 * float64(c)
		profile := make([]float64, dim)
		for t := range profile {
			profile[t] = math.Sin(2*math.Pi*float64(t)/float64(dim) + phase)
		}
		for i := 0; i < sizes[c]; i++ {
			// Wide amplitude range: genes share a pattern but differ wildly
			// in expression magnitude, so each class is a long thin ray and
			// Euclidean distance is dominated by magnitude, not pattern —
			// k-means then cuts radially across classes while density-based
			// clustering follows each ray.
			amp := 0.5 + 4.5*r.Float64()
			g := make([]float64, dim)
			for t := range g {
				g[t] = amp*profile[t] + 0.08*r.NormFloat64()
			}
			x = append(x, g)
			y = append(y, c)
		}
	}
	shuffle(r, x, y)
	return dataset.MustNew("zyeast", x, y)
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// UCISuite returns the five single-dataset surrogates in the order the
// paper's tables list them after ALOI: Iris, Wine, Ionosphere, Ecoli, Zyeast.
func UCISuite(seed int64) []*dataset.Dataset {
	return []*dataset.Dataset{
		Iris(stats.SplitSeed(seed, 1)),
		Wine(stats.SplitSeed(seed, 2)),
		Ionosphere(stats.SplitSeed(seed, 3)),
		Ecoli(stats.SplitSeed(seed, 4)),
		Zyeast(stats.SplitSeed(seed, 5)),
	}
}

// GrowthBatch generates the batch-th append of a growing labeled dataset:
// rows points drawn round-robin from classes axis-aligned Gaussian classes
// in dims dimensions. Each (seed, batch) pair is an independent
// deterministic draw, so a growth sequence is reproducible batch by batch
// and two runs that emit the same batches build bit-identical datasets —
// the property the incremental re-selection path (versioned datasets plus
// the content-addressed cell cache) is tested against. Class c is centered
// at 10·c on every axis with unit scale, far enough apart that the
// clustering structure survives growth.
func GrowthBatch(seed int64, batch, rows, dims, classes int) dataset.RowBatch {
	r := stats.NewRand(seed + int64(batch)*1_000_003)
	b := dataset.RowBatch{Rows: make([][]float64, rows), Labels: make([]int, rows)}
	for i := 0; i < rows; i++ {
		c := i % classes
		p := make([]float64, dims)
		for j := range p {
			p[j] = 10*float64(c) + r.NormFloat64()
		}
		b.Rows[i] = p
		b.Labels[i] = c
	}
	return b
}
