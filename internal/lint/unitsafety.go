package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unitsPkgPath is the import path of the typed physical-quantity package.
// Every defined float64 type in it carries a dimension (units.Watts,
// units.Radians, ...), and the only sanctioned ways across the typed/bare
// boundary are the package's named conversion functions and accessor
// methods.
const unitsPkgPath = modulePath + "/internal/units"

// analyzerUnitSafety is vlclint's dimensional-analysis pass. Go's type
// system rejects most unit mix-ups outright (units.Watts + units.Seconds
// does not compile), but three holes remain open because every unit type
// shares the float64 underlying type:
//
//   - cross-unit conversions: units.Radians(deg) compiles for a
//     units.Degrees value and silently relabels the number without scaling
//     it. The named conversion functions (units.DegreesToRadians, ...) are
//     the sanctioned path.
//   - dimension laundering: float64(power) strips the unit and re-enters
//     the untyped world without saying which magnitude it meant. Accessor
//     methods (.W(), .Rad(), ...) are the sanctioned crossing: the method
//     name documents the unit at the call site.
//   - unrepresentable dimensions: multiplying or dividing two unit-typed
//     values type-checks but lies — Go keeps the operand type, so
//     bps/bps yields units.BitsPerSecond where the mathematics yields a
//     dimensionless ratio. Extract magnitudes first.
//
// It also audits the API surface of the physics packages: an exported
// function that passes a power, angle, distance, current, ... as bare
// float64 reintroduces the ambiguity the units package exists to remove.
var analyzerUnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc:  "flag cross-unit conversions, float64 laundering of unit values, and untyped physical quantities in exported physics APIs",
	Run:  runUnitSafety,
}

// physicsPkgs names the internal packages whose exported API must express
// physical quantities through the units package (rule c). The experiment
// harness and generic math helpers (stats, linalg, optimize, dsp) stay out:
// they traffic in dimensionless tables and raw vectors.
var physicsPkgs = map[string]bool{
	"optics":   true,
	"led":      true,
	"channel":  true,
	"illum":    true,
	"geom":     true,
	"alloc":    true,
	"phy":      true,
	"clock":    true,
	"vlcsync":  true,
	"driver":   true,
	"precode":  true,
	"scenario": true,
	"sim":      true,
	"mobility": true,
	"mac":      true,
}

// unitishNames are lowercase substrings that mark an identifier as a
// physical quantity. Deliberately absent: gain, snr, sinr, kappa,
// efficiency, uniformity, ppm — dimensionless by the paper's definitions.
var unitishNames = []string{
	"power", "angle", "distance", "current", "voltage",
	"watt", "ampere", "lumen", "lux", "flux", "illuminance", "candela",
	"frequency", "bandwidth", "resistance", "area", "fov",
	"radius", "spacing", "budget", "throughput", "goodput",
	"swing", "amplitude", "noisestd", "efficacy", "wavelength",
	"duration", "delay", "offset", "semiangle",
}

func runUnitSafety(pkg *Package) []Finding {
	if pkg.Path == unitsPkgPath {
		return nil // the conversion helpers themselves live here
	}
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if f := checkConversion(pkg, n); f != nil {
					findings = append(findings, *f)
				}
			case *ast.BinaryExpr:
				if f := checkUnitArith(pkg, n); f != nil {
					findings = append(findings, *f)
				}
			case *ast.FuncDecl:
				findings = append(findings, checkExportedAPI(pkg, n)...)
			}
			return true
		})
	}
	return findings
}

// checkConversion flags T1(x) where T1 and the type of x are distinct unit
// types (rule a: relabeling without scaling) and float64(x) where x is
// unit-typed (rule b: laundering). Conversions from constants and from bare
// numbers INTO a unit type are construction, always legal.
func checkConversion(pkg *Package, call *ast.CallExpr) *Finding {
	if len(call.Args) != 1 {
		return nil
	}
	tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() {
		return nil
	}
	argTV, ok := pkg.Info.Types[call.Args[0]]
	if !ok || argTV.Value != nil { // constants carry no runtime dimension
		return nil
	}
	src := unitNamed(argTV.Type)
	if src == nil {
		return nil
	}
	pos := pkg.Fset.Position(call.Pos())
	if dst := unitNamed(tv.Type); dst != nil {
		if dst.Obj().Name() == src.Obj().Name() {
			return nil
		}
		return &Finding{
			Pos:  pos,
			Rule: "unitsafety",
			Message: fmt.Sprintf("cross-unit conversion units.%s(...) of a units.%s value relabels without scaling; use a named conversion (e.g. units.DegreesToRadians) or rebuild from an accessor magnitude",
				dst.Obj().Name(), src.Obj().Name()),
		}
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Info()&types.IsFloat != 0 && !isTestFile(pos) {
		return &Finding{
			Pos:  pos,
			Rule: "unitsafety",
			Message: fmt.Sprintf("units.%s value laundered through bare %s(...); use its accessor method so the call site names the unit",
				src.Obj().Name(), basic.Name()),
		}
	}
	return nil
}

// checkUnitArith flags * and / between two non-constant unit-typed
// operands: Go keeps the operand type, but the mathematical dimension is
// squared (or cancelled), so the result silently lies about its unit.
func checkUnitArith(pkg *Package, bin *ast.BinaryExpr) *Finding {
	if bin.Op != token.MUL && bin.Op != token.QUO {
		return nil
	}
	x, okx := pkg.Info.Types[bin.X]
	y, oky := pkg.Info.Types[bin.Y]
	if !okx || !oky || x.Value != nil || y.Value != nil {
		return nil
	}
	xu, yu := unitNamed(x.Type), unitNamed(y.Type)
	if xu == nil || yu == nil {
		return nil
	}
	return &Finding{
		Pos:  pkg.Fset.Position(bin.Pos()),
		Rule: "unitsafety",
		Message: fmt.Sprintf("units.%s %s units.%s has no representable dimension (Go keeps the operand type); extract magnitudes with accessor methods first",
			xu.Obj().Name(), bin.Op, yu.Obj().Name()),
	}
}

// checkExportedAPI flags exported functions in physics packages whose
// parameters or results pass a unit-suggesting quantity as bare float64
// (rule c).
func checkExportedAPI(pkg *Package, fn *ast.FuncDecl) []Finding {
	if !isPhysicsPkg(pkg.Path) || !fn.Name.IsExported() {
		return nil
	}
	if pos := pkg.Fset.Position(fn.Pos()); isTestFile(pos) {
		return nil
	}
	if fn.Recv != nil && !receiverExported(fn.Recv) {
		return nil
	}
	var findings []Finding
	flag := func(pos token.Pos, what, name string) {
		findings = append(findings, Finding{
			Pos:  pkg.Fset.Position(pos),
			Rule: "unitsafety",
			Message: fmt.Sprintf("exported %s has bare float64 %s %q naming a physical quantity; use the matching units type",
				fn.Name.Name, what, name),
		})
	}
	for _, field := range fn.Type.Params.List {
		if !isBareFloat(pkg.Info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if unitishName(name.Name) {
				flag(name.Pos(), "parameter", name.Name)
			}
		}
	}
	if fn.Type.Results == nil {
		return findings
	}
	for _, field := range fn.Type.Results.List {
		if !isBareFloat(pkg.Info.TypeOf(field.Type)) {
			continue
		}
		if len(field.Names) == 0 {
			// Unnamed result: the function name is the only label.
			if unitishName(fn.Name.Name) {
				flag(field.Pos(), "result (named by the function)", fn.Name.Name)
			}
			continue
		}
		for _, name := range field.Names {
			if unitishName(name.Name) {
				flag(name.Pos(), "result", name.Name)
			}
		}
	}
	return findings
}

// unitNamed returns the defined unit type behind t (a named float64 from
// the units package), or nil.
func unitNamed(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != unitsPkgPath {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Float64 {
		return nil
	}
	return named
}

// isBareFloat reports whether t is exactly the builtin float64/float32 —
// not a defined type over it.
func isBareFloat(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isPhysicsPkg reports whether pkgPath is one of the internal packages
// whose exported API must use the units types for physical quantities.
func isPhysicsPkg(pkgPath string) bool {
	name, ok := strings.CutPrefix(pkgPath, modulePath+"/internal/")
	if !ok {
		return false
	}
	return physicsPkgs[name]
}

// unitishName reports whether the identifier names a physical quantity.
func unitishName(name string) bool {
	lower := strings.ToLower(name)
	for _, pat := range unitishNames {
		if strings.Contains(lower, pat) {
			return true
		}
	}
	return false
}

// receiverExported reports whether a method's receiver base type is
// exported (methods on unexported types are not API surface).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
